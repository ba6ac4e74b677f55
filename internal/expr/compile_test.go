package expr

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mood/internal/object"
	"mood/internal/storage"
)

// testResolver is a tiny in-memory object graph: OID 1 resolves to a tuple,
// OID 2 to a non-tuple value (projecting through it is a type error), any
// other OID fails. Both the interpreter and the compiled closures receive
// the same resolver, so reference chasing exercises identical paths.
func testResolver() object.Resolver {
	return func(oid storage.OID) (object.Value, error) {
		switch oid {
		case 1:
			return object.NewTuple(
				[]string{"name", "weight"},
				[]Value{object.NewString("linked"), object.NewInt(7)},
			), nil
		case 2:
			return object.NewString("not a tuple"), nil
		}
		return object.Null, fmt.Errorf("resolver: unknown oid %d", oid)
	}
}

// Value aliases keep the test tables readable.
type Value = object.Value

func testSelf() Value {
	return object.NewTuple(
		[]string{"name", "weight", "ratio", "ref", "badref", "nilref", "nullattr"},
		[]Value{
			object.NewString("BMW"),
			object.NewInt(42),
			object.NewFloat(2.5),
			object.NewRef(1),
			object.NewRef(2),
			object.NewRef(storage.NilOID),
			object.Null,
		},
	)
}

func testEnv() *Env {
	return &Env{
		Vars:    map[string]Value{"v": testSelf()},
		OIDs:    map[string]storage.OID{"v": 5},
		Resolve: testResolver(),
	}
}

func field(base Expr, names ...string) Expr {
	for _, n := range names {
		base = &Field{Base: base, Name: n}
	}
	return base
}

// compileCases is the shared expression table: every shape the compiler
// lowers plus the fallback and error paths, evaluated against testEnv.
func compileCases() []struct {
	name string
	e    Expr
	full bool // expected "fully compiled" flag from Compile
	self bool // expected to lower to self mode over "v"
} {
	v := func() Expr { return &Var{Name: "v"} }
	return []struct {
		name string
		e    Expr
		full bool
		self bool
	}{
		{"const", &Const{Val: object.NewInt(3)}, true, true},
		{"var", v(), true, true},
		{"field", field(v(), "name"), true, true},
		{"missing-attr", field(v(), "nosuch"), true, true},
		{"null-attr-project", field(v(), "nullattr", "deeper"), true, true},
		{"ref-chase", field(v(), "ref", "name"), true, true},
		{"nil-ref", field(v(), "nilref", "name"), true, true},
		{"ref-to-non-tuple", field(v(), "badref", "name"), true, true},
		{"project-non-tuple", field(v(), "weight", "x"), true, true},
		{"cmp-eq", &Cmp{Op: OpEq, L: field(v(), "name"), R: &Const{Val: object.NewString("BMW")}}, true, true},
		{"cmp-null", &Cmp{Op: OpLt, L: field(v(), "nullattr"), R: &Const{Val: object.NewInt(1)}}, true, true},
		{"cmp-type-error", &Cmp{Op: OpLt, L: field(v(), "name"), R: &Const{Val: object.NewInt(1)}}, true, true},
		{"arith", &Arith{Op: OpAdd, L: field(v(), "weight"), R: &Const{Val: object.NewInt(8)}}, true, true},
		{"arith-widen", &Arith{Op: OpMul, L: field(v(), "weight"), R: &Const{Val: object.NewFloat(0.5)}}, true, true},
		{"arith-div-zero", &Arith{Op: OpDiv, L: field(v(), "weight"), R: &Const{Val: object.NewInt(0)}}, true, true},
		{"concat", &Arith{Op: OpAdd, L: field(v(), "name"), R: &Const{Val: object.NewString("!")}}, true, true},
		{"neg", &Neg{E: field(v(), "weight")}, true, true},
		{"neg-type-error", &Neg{E: field(v(), "name")}, true, true},
		{"not", &Not{E: &Cmp{Op: OpEq, L: field(v(), "weight"), R: &Const{Val: object.NewInt(42)}}}, true, true},
		{"between", &Between{E: field(v(), "weight"), Lo: &Const{Val: object.NewInt(40)}, Hi: &Const{Val: object.NewInt(50)}}, true, true},
		{"and-short-circuit", &Logic{
			Op: OpAnd,
			L:  &Cmp{Op: OpEq, L: field(v(), "name"), R: &Const{Val: object.NewString("nope")}},
			// The right side would error (ordering a string against an int);
			// short-circuiting must skip it in both paths.
			R: &Cmp{Op: OpLt, L: field(v(), "name"), R: &Const{Val: object.NewInt(1)}},
		}, true, true},
		{"or", &Logic{
			Op: OpOr,
			L:  &Cmp{Op: OpEq, L: field(v(), "weight"), R: &Const{Val: object.NewInt(42)}},
			R:  &Cmp{Op: OpLt, L: field(v(), "name"), R: &Const{Val: object.NewInt(1)}},
		}, true, true},
		{"unbound-var", &Var{Name: "w"}, true, false},
		{"call-falls-back", &Call{Base: v(), Method: "m"}, false, false},
		{"call-inside-cmp", &Cmp{Op: OpEq, L: &Call{Base: v(), Method: "m"}, R: &Const{Val: object.NewInt(1)}}, false, false},
	}
}

// TestCompileMatchesInterpreter holds Compile/CompileBool equal to the tree
// interpreter — values, bool coercion, and exact error strings — across the
// whole expression table.
func TestCompileMatchesInterpreter(t *testing.T) {
	for _, tc := range compileCases() {
		t.Run(tc.name, func(t *testing.T) {
			fn, full := Compile(tc.e, nil)
			if full != tc.full {
				t.Fatalf("Compile full=%v, want %v", full, tc.full)
			}
			wantV, wantErr := tc.e.Eval(testEnv())
			gotV, gotErr := fn(testEnv())
			if !sameErr(wantErr, gotErr) {
				t.Fatalf("error mismatch: interpreter %v, compiled %v", wantErr, gotErr)
			}
			if wantErr == nil && !reflect.DeepEqual(wantV, gotV) {
				t.Fatalf("value mismatch: interpreter %v, compiled %v", wantV, gotV)
			}

			bf, _ := CompileBool(tc.e, nil)
			wantB, wantErr := EvalBool(tc.e, testEnv())
			gotB, gotErr := bf(testEnv())
			if !sameErr(wantErr, gotErr) || wantB != gotB {
				t.Fatalf("bool mismatch: interpreter (%v,%v), compiled (%v,%v)", wantB, wantErr, gotB, gotErr)
			}
		})
	}
}

// TestCompilePredicateSelfMode holds the self-mode closure equal to
// interpreting with an environment binding only "v", and checks the
// all-or-nothing lowering rule.
func TestCompilePredicateSelfMode(t *testing.T) {
	for _, tc := range compileCases() {
		t.Run(tc.name, func(t *testing.T) {
			pf, ok := CompilePredicate(tc.e, "v")
			if ok != tc.self {
				t.Fatalf("CompilePredicate ok=%v, want %v", ok, tc.self)
			}
			if !ok {
				if pf != nil {
					t.Fatal("rejected predicate returned a non-nil PredFn")
				}
				return
			}
			wantB, wantErr := EvalBool(tc.e, testEnv())
			self := testSelf()
			gotB, gotErr := pf(&self, 5, testResolver())
			if !sameErr(wantErr, gotErr) || wantB != gotB {
				t.Fatalf("self mode mismatch: interpreter (%v,%v), compiled (%v,%v)", wantB, wantErr, gotB, gotErr)
			}
		})
	}
}

// TestCompilePredicateRejectsOtherVariables pins the multi-variable rule:
// a tree is self-mode only when every variable is the scan variable.
func TestCompilePredicateRejectsOtherVariables(t *testing.T) {
	joined := &Cmp{Op: OpEq, L: field(&Var{Name: "v"}, "name"), R: field(&Var{Name: "u"}, "name")}
	if _, ok := CompilePredicate(joined, "v"); ok {
		t.Fatal("two-variable predicate lowered to self mode")
	}
	if _, ok := CompilePredicate(field(&Var{Name: "v"}, "name"), "u"); ok {
		t.Fatal("predicate over v lowered against scan variable u")
	}
}

// TestSignatureDistinguishesConstKinds pins the registry-key rule: literals
// of different run-time kinds that render identically must not share a
// compiled fragment (Integer 1 widens differently from LongInteger 1).
func TestSignatureDistinguishesConstKinds(t *testing.T) {
	mk := func(c Value) Expr {
		return &Cmp{Op: OpEq, L: field(&Var{Name: "v"}, "weight"), R: &Const{Val: c}}
	}
	si := Signature(mk(object.NewInt(1)))
	sl := Signature(mk(object.NewLong(1)))
	if si == sl {
		t.Fatalf("Int and Long literals share signature %q", si)
	}
	if s2 := Signature(mk(object.NewInt(1))); s2 != si {
		t.Fatalf("signature not stable: %q vs %q", si, s2)
	}
}

// TestBetweenEvaluatesOperandTwice pins the desugaring contract: BETWEEN
// lowers to E >= Lo AND E <= Hi with E evaluated twice, in the interpreter
// and the compiled form alike.
func TestBetweenEvaluatesOperandTwice(t *testing.T) {
	count := 0
	e := &Between{
		E:  &countingExpr{inner: &Const{Val: object.NewInt(5)}, n: &count},
		Lo: &Const{Val: object.NewInt(1)},
		Hi: &Const{Val: object.NewInt(9)},
	}
	if _, err := e.Eval(testEnv()); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("interpreter evaluated BETWEEN operand %d times, want 2", count)
	}
	count = 0
	fn, full := Compile(e, nil)
	if full {
		t.Fatal("countingExpr should force the fallback flag off")
	}
	if _, err := fn(testEnv()); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("compiled form evaluated BETWEEN operand %d times, want 2", count)
	}
}

// countingExpr counts evaluations; being outside the compilable subset it
// also exercises the interpreter-fallback path inside a compiled tree.
type countingExpr struct {
	inner Expr
	n     *int
}

func (c *countingExpr) Eval(env *Env) (Value, error) {
	*c.n++
	return c.inner.Eval(env)
}

func (c *countingExpr) String() string { return c.inner.String() }

func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestCompiledErrorValuesUnwrap pins that compiled closures surface the
// package's sentinel errors (errors.Is-compatible), not copies.
func TestCompiledErrorValuesUnwrap(t *testing.T) {
	e := &Cmp{Op: OpLt, L: field(&Var{Name: "v"}, "name"), R: &Const{Val: object.NewInt(1)}}
	pf, ok := CompilePredicate(e, "v")
	if !ok {
		t.Fatal("predicate did not lower")
	}
	self := testSelf()
	_, err := pf(&self, 5, testResolver())
	if !errors.Is(err, ErrType) {
		t.Fatalf("compiled type error = %v, want errors.Is ErrType", err)
	}
}

// TestSelfAttrs: the attribute set names each top-level attribute a
// predicate projects off the variable once, in first-use order, including
// the first hop of a path; reading the variable bare, calling a method or
// mentioning another variable yields no set.
func TestSelfAttrs(t *testing.T) {
	v := &Var{Name: "v"}
	cases := []struct {
		e    Expr
		want []string
		ok   bool
	}{
		{&Cmp{Op: OpEq, L: field(v, "name"), R: &Const{Val: object.NewString("BMW")}}, []string{"name"}, true},
		{&Logic{Op: OpAnd,
			L: &Cmp{Op: OpEq, L: field(v, "location"), R: &Const{Val: object.NewString("Tokyo")}},
			R: &Cmp{Op: OpGt, L: field(v, "president", "age"), R: field(v, "location")}},
			[]string{"location", "president"}, true},
		{&Between{E: field(v, "weight"), Lo: &Const{Val: object.NewInt(1)}, Hi: &Neg{E: field(v, "ratio")}},
			[]string{"weight", "ratio"}, true},
		{&Not{E: &Cmp{Op: OpEq, L: &Const{Val: object.NewInt(1)}, R: &Const{Val: object.NewInt(1)}}}, nil, true},
		{&Cmp{Op: OpEq, L: v, R: field(v, "ref")}, nil, false},
		{&Cmp{Op: OpEq, L: field(&Var{Name: "w"}, "name"), R: field(v, "name")}, nil, false},
		{&Cmp{Op: OpGt, L: &Call{Base: v, Method: "lbweight"}, R: &Const{Val: object.NewInt(1)}}, nil, false},
		{&Cmp{Op: OpGt, L: field(&Call{Base: v, Method: "boss"}, "age"), R: &Const{Val: object.NewInt(1)}}, nil, false},
	}
	for _, c := range cases {
		got, ok := SelfAttrs(c.e, "v")
		if ok != c.ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("SelfAttrs(%s) = %q, %v; want %q, %v", c.e, got, ok, c.want, c.ok)
		}
	}
}
