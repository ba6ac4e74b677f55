package expr

import (
	"reflect"
	"testing"

	"mood/internal/object"
	"mood/internal/storage"
)

// FuzzCompile decodes the fuzz input into a random expression tree and a
// random self value, then holds all three evaluation paths equal on it:
// the tree interpreter, the Compile/CompileBool closures, and (when the
// tree lowers) the self-mode PredFn. A fourth leg covers the extent scan's
// decode on qualify: when SelfAttrs accepts the tree, the compiled forms
// over self's encoding decoded to just those attributes must agree with
// them over self. Divergence in value, bool coercion, or error string is a
// finding. The generator deliberately produces trees
// over an unbound second variable, projections through nulls, missing
// attributes, nil and dangling references, and operands of mismatched
// types — the semantics the compiled closures must reproduce exactly.
//
// Run bounded via `make fuzz`; the checked-in corpus under
// testdata/fuzz/FuzzCompile seeds the interesting shapes.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{})
	// A field comparison: Cmp(=, Field(Var v, name), Const string).
	f.Add([]byte{4, 0, 3, 1, 0, 0, 4, 10})
	// Logic over arithmetic with a type mismatch on one side.
	f.Add([]byte{6, 0, 5, 2, 3, 1, 1, 0, 1, 5, 4, 1, 3, 1, 2, 0, 3})
	// Between over a projection chain through a reference.
	f.Add([]byte{9, 3, 3, 1, 2, 0, 1, 0, 2, 30})
	// Unbound variable and a negation of a string.
	f.Add([]byte{8, 3, 2, 0, 7, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSrc{data: data}
		e := src.expr(0)
		self := src.value(0)
		oid := storage.OID(src.byte())
		resolve := testResolver()
		env := func() *Env {
			return &Env{
				Vars:    map[string]object.Value{"v": self},
				OIDs:    map[string]storage.OID{"v": oid},
				Resolve: resolve,
			}
		}

		wantV, wantErr := e.Eval(env())
		fn, _ := Compile(e, nil)
		gotV, gotErr := fn(env())
		if !sameErr(wantErr, gotErr) {
			t.Fatalf("expr %s: interpreter err %v, compiled err %v", e, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(wantV, gotV) {
			t.Fatalf("expr %s: interpreter %v, compiled %v", e, wantV, gotV)
		}

		wantB, wantBErr := EvalBool(e, env())
		bf, _ := CompileBool(e, nil)
		gotB, gotBErr := bf(env())
		if !sameErr(wantBErr, gotBErr) || wantB != gotB {
			t.Fatalf("expr %s: interpreter bool (%v,%v), compiled (%v,%v)", e, wantB, wantBErr, gotB, gotBErr)
		}

		// The row-vector form: v in slot 1 of a two-slot row whose slot 0
		// binds nothing. Compiled against the layout, the closures agree
		// with the interpreter over the same row, and with the by-name
		// environment whenever v's binding is not the zero one (the
		// executor never binds a variable to it).
		slots := map[string]int{"w": 0, "v": 1}
		row := &Env{Row: []Binding{{}, {OID: oid, Val: self}}, Slots: slots, Resolve: resolve}
		slotFn, _ := Compile(e, slots)
		sv, sErr := slotFn(row)
		iv, iErr := e.Eval(row)
		if !sameErr(iErr, sErr) || (iErr == nil && !reflect.DeepEqual(iv, sv)) {
			t.Fatalf("expr %s: interpreter over the row (%v,%v), slot-compiled (%v,%v)", e, iv, iErr, sv, sErr)
		}
		if !row.Row[1].Unbound() && (!sameErr(wantErr, sErr) || (wantErr == nil && !reflect.DeepEqual(wantV, sv))) {
			t.Fatalf("expr %s: by name (%v,%v), slot-compiled (%v,%v)", e, wantV, wantErr, sv, sErr)
		}
		sbf, _ := CompileBool(e, slots)
		if sb, sbErr := sbf(row); !row.Row[1].Unbound() && (!sameErr(wantBErr, sbErr) || wantB != sb) {
			t.Fatalf("expr %s: by-name bool (%v,%v), slot-compiled (%v,%v)", e, wantB, wantBErr, sb, sbErr)
		}

		pf, ok := CompilePredicate(e, "v")
		if !ok {
			return
		}
		selfB, selfErr := pf(&self, oid, resolve)
		if !sameErr(wantBErr, selfErr) || wantB != selfB {
			t.Fatalf("expr %s: interpreter bool (%v,%v), self mode (%v,%v)", e, wantB, wantBErr, selfB, selfErr)
		}

		attrs, ok := SelfAttrs(e, "v")
		if !ok {
			return
		}
		var part object.Value
		if err := object.UnmarshalFields(object.Marshal(self), attrs, &part); err != nil {
			t.Fatalf("expr %s: partial decode of self: %v", e, err)
		}
		partB, partErr := pf(&part, oid, resolve)
		if !sameErr(selfErr, partErr) || selfB != partB {
			t.Fatalf("expr %s over attrs %q: self mode (%v,%v), over the partial tuple (%v,%v)",
				e, attrs, selfB, selfErr, partB, partErr)
		}
		partV, partVErr := fn(&Env{
			Vars:    map[string]object.Value{"v": part},
			OIDs:    map[string]storage.OID{"v": oid},
			Resolve: resolve,
		})
		if !sameErr(wantErr, partVErr) || (wantErr == nil && !reflect.DeepEqual(wantV, partV)) {
			t.Fatalf("expr %s over attrs %q: compiled (%v,%v), over the partial tuple (%v,%v)",
				e, attrs, wantV, wantErr, partV, partVErr)
		}
	})
}

// fuzzSrc turns the fuzz input into a deterministic stream of choices; an
// exhausted stream reads as zero, which always selects a terminal, so any
// byte slice decodes to a finite tree.
type fuzzSrc struct {
	data []byte
	i    int
}

func (s *fuzzSrc) byte() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

const fuzzMaxDepth = 4

var fuzzAttrs = [...]string{"name", "weight", "ratio", "ref", "badref", "nilref", "nullattr", "nosuch"}

func (s *fuzzSrc) expr(depth int) Expr {
	choice := int(s.byte())
	if depth >= fuzzMaxDepth {
		choice %= 3 // terminals only
	} else {
		choice %= 10
	}
	switch choice {
	case 0:
		return &Const{Val: s.scalar()}
	case 1:
		return &Var{Name: "v"}
	case 2:
		// A second variable: unbound in the environment (ErrUnbound in all
		// paths) and a self-mode rejection.
		return &Var{Name: "w"}
	case 3:
		return &Field{Base: s.expr(depth + 1), Name: fuzzAttrs[int(s.byte())%len(fuzzAttrs)]}
	case 4:
		ops := [...]CmpOp{OpEq, OpNe, OpGe, OpLe, OpGt, OpLt}
		return &Cmp{Op: ops[int(s.byte())%len(ops)], L: s.expr(depth + 1), R: s.expr(depth + 1)}
	case 5:
		ops := [...]ArithOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return &Arith{Op: ops[int(s.byte())%len(ops)], L: s.expr(depth + 1), R: s.expr(depth + 1)}
	case 6:
		op := OpAnd
		if s.byte()%2 == 1 {
			op = OpOr
		}
		return &Logic{Op: op, L: s.expr(depth + 1), R: s.expr(depth + 1)}
	case 7:
		return &Not{E: s.expr(depth + 1)}
	case 8:
		return &Neg{E: s.expr(depth + 1)}
	default:
		return &Between{E: s.expr(depth + 1), Lo: s.expr(depth + 1), Hi: s.expr(depth + 1)}
	}
}

// scalar decodes one non-composite value, covering every kind the
// comparison and arithmetic cores branch on, plus references that resolve,
// dangle, are nil, or point at a non-tuple.
func (s *fuzzSrc) scalar() object.Value {
	switch s.byte() % 9 {
	case 0:
		return object.Null
	case 1:
		return object.NewInt(int32(s.byte()) - 128)
	case 2:
		return object.NewLong(int64(s.byte()) - 128)
	case 3:
		return object.NewFloat(float64(int(s.byte())-128) / 4)
	case 4:
		strs := [...]string{"", "BMW", "Tokyo", "a", "zz"}
		return object.NewString(strs[int(s.byte())%len(strs)])
	case 5:
		return object.NewBool(s.byte()%2 == 0)
	case 6:
		return object.NewRef(storage.NilOID)
	case 7:
		oids := [...]storage.OID{1, 2, 99}
		return object.NewRef(oids[int(s.byte())%len(oids)])
	default:
		return object.NewChar(rune(s.byte()))
	}
}

// value decodes the self binding: usually a tuple (so projections land),
// sometimes a bare scalar (so Field hits the type-error path).
func (s *fuzzSrc) value(depth int) object.Value {
	if depth < 2 && s.byte()%4 != 0 {
		names := []string{"name", "weight", "ratio", "ref", "badref", "nilref", "nullattr"}
		fields := make([]object.Value, len(names))
		for i := range fields {
			if s.byte()%5 == 0 && depth < 1 {
				fields[i] = s.value(depth + 1)
			} else {
				fields[i] = s.scalar()
			}
		}
		return object.NewTuple(names, fields)
	}
	return s.scalar()
}
