package expr

import (
	"slices"
	"strings"

	"mood/internal/object"
	"mood/internal/storage"
)

// This file lowers expression trees into fused Go closures — the
// query-fragment analogue of the paper's Function Manager compilation step:
// a predicate is "compiled once" into a directly callable function and then
// resolved by signature at execution time (funcmgr.QueryRegistry). The
// closures call the same semantic cores as the tree interpreter (applyCmp,
// applyArith, applyNeg, projectField), so null propagation, run-time type
// promotion, short-circuiting, and error values are identical by
// construction; the fuzzer in fuzz_test.go holds the two paths equal on
// random trees and rows.
//
// Two shapes are produced:
//
//   - Fn/BoolFn close over an *Env, a drop-in for tree evaluation anywhere
//     an environment is already bound. Compiled against a row layout, a
//     variable reference becomes a slot index, so the executor binds a row
//     by pointing the Env at it. Every node kind lowers; a node the
//     compiler does not understand (method calls, future extensions) falls
//     back to its own Eval, and the returned flag reports whether the whole
//     tree lowered ("fully compiled").
//   - PredFn is the self-mode specialization for single-variable predicates:
//     the only free variable is passed directly, so evaluating a row needs
//     no environment maps at all — the form the vectorized scan operators
//     use per batch element. Lowering is all-or-nothing: any node outside
//     the compilable subset (another variable, a method call) rejects the
//     whole tree.

// Signature renders e for compiled-fragment keying: the String rendering
// plus the run-time kinds of every literal, so constants of different types
// that print alike (Integer 1, LongInteger 1) never share a fragment.
func Signature(e Expr) string {
	var sb strings.Builder
	sb.WriteString(e.String())
	sb.WriteByte(0)
	appendConstKinds(e, &sb)
	return sb.String()
}

func appendConstKinds(e Expr, sb *strings.Builder) {
	switch n := e.(type) {
	case *Const:
		sb.WriteString(n.Val.Kind.String())
		sb.WriteByte(';')
	case *Field:
		appendConstKinds(n.Base, sb)
	case *Call:
		appendConstKinds(n.Base, sb)
		for _, a := range n.Args {
			appendConstKinds(a, sb)
		}
	case *Cmp:
		appendConstKinds(n.L, sb)
		appendConstKinds(n.R, sb)
	case *Arith:
		appendConstKinds(n.L, sb)
		appendConstKinds(n.R, sb)
	case *Logic:
		appendConstKinds(n.L, sb)
		appendConstKinds(n.R, sb)
	case *Between:
		appendConstKinds(n.E, sb)
		appendConstKinds(n.Lo, sb)
		appendConstKinds(n.Hi, sb)
	case *Not:
		appendConstKinds(n.E, sb)
	case *Neg:
		appendConstKinds(n.E, sb)
	}
}

// Fn is a compiled expression, evaluated against a bound environment.
type Fn func(env *Env) (object.Value, error)

// BoolFn is a compiled predicate: Fn with the result coerced to bool.
type BoolFn func(env *Env) (bool, error)

// PredFn is a self-mode compiled single-variable predicate: the range
// variable's value and OID are passed directly instead of through Env maps.
// self is passed by pointer — Value is a 120-byte struct and PredFn runs
// once per scanned object — and is never written through.
type PredFn func(self *object.Value, selfOID storage.OID, resolve object.Resolver) (bool, error)

// Compile lowers e into a closure. The returned flag is true when every
// node lowered; false means at least one subtree runs through the
// interpreter (the closure is still always valid and semantically exact).
//
// slots, when non-nil, is the row layout the closure will run against: a
// variable it names is read straight from that slot of env.Row, with no
// lookup by name, and must then be evaluated against an Env whose Row has
// that layout and whose Vars are empty. A variable slots does not name,
// and every variable when slots is nil, is looked up by name.
func Compile(e Expr, slots map[string]int) (Fn, bool) {
	switch n := e.(type) {
	case *Const:
		v := n.Val
		return func(*Env) (object.Value, error) { return v, nil }, true

	case *Var:
		if i, ok := slots[n.Name]; ok {
			return func(env *Env) (object.Value, error) {
				b := &env.Row[i]
				if b.Unbound() {
					return object.Null, errUnbound(n.Name)
				}
				return b.Val, nil
			}, true
		}
		return func(env *Env) (object.Value, error) { return n.Eval(env) }, true

	case *Field:
		if v, isVar := n.Base.(*Var); isVar {
			if i, ok := slots[v.Name]; ok {
				// Project straight off the slot, without copying the
				// bound value out first.
				return func(env *Env) (object.Value, error) {
					b := &env.Row[i]
					if b.Unbound() {
						return object.Null, errUnbound(v.Name)
					}
					return projectField(&b.Val, n.Name, env.Resolve, n)
				}, true
			}
		}
		base, ok := Compile(n.Base, slots)
		return func(env *Env) (object.Value, error) {
			b, err := base(env)
			if err != nil {
				return object.Null, err
			}
			var resolve object.Resolver
			if env != nil {
				resolve = env.Resolve
			}
			return projectField(&b, n.Name, resolve, n)
		}, ok

	case *Cmp:
		lf, lok := Compile(n.L, slots)
		rf, rok := Compile(n.R, slots)
		op := n.Op
		return func(env *Env) (object.Value, error) {
			l, err := lf(env)
			if err != nil {
				return object.Null, err
			}
			r, err := rf(env)
			if err != nil {
				return object.Null, err
			}
			return applyCmp(op, &l, &r)
		}, lok && rok

	case *Between:
		return Compile(n.desugar(), slots)

	case *Logic:
		lf, lok := Compile(n.L, slots)
		rf, rok := Compile(n.R, slots)
		op := n.Op
		return func(env *Env) (object.Value, error) {
			lv, err := lf(env)
			if err != nil {
				return object.Null, err
			}
			lb := lv.Bool()
			if op == OpAnd && !lb {
				return object.NewBool(false), nil
			}
			if op == OpOr && lb {
				return object.NewBool(true), nil
			}
			rv, err := rf(env)
			if err != nil {
				return object.Null, err
			}
			return object.NewBool(rv.Bool()), nil
		}, lok && rok

	case *Not:
		f, ok := Compile(n.E, slots)
		return func(env *Env) (object.Value, error) {
			v, err := f(env)
			if err != nil {
				return object.Null, err
			}
			return object.NewBool(!v.Bool()), nil
		}, ok

	case *Arith:
		lf, lok := Compile(n.L, slots)
		rf, rok := Compile(n.R, slots)
		op := n.Op
		return func(env *Env) (object.Value, error) {
			l, err := lf(env)
			if err != nil {
				return object.Null, err
			}
			r, err := rf(env)
			if err != nil {
				return object.Null, err
			}
			return applyArith(op, &l, &r)
		}, lok && rok

	case *Neg:
		f, ok := Compile(n.E, slots)
		return func(env *Env) (object.Value, error) {
			v, err := f(env)
			if err != nil {
				return object.Null, err
			}
			return applyNeg(&v)
		}, ok
	}
	// Method calls and unknown node kinds interpret; the closure is still
	// usable, just not "fully compiled".
	return e.Eval, false
}

// CompileBool lowers a predicate, coercing the result to bool exactly as
// EvalBool does. slots is as for Compile.
func CompileBool(e Expr, slots map[string]int) (BoolFn, bool) {
	fn, ok := Compile(e, slots)
	return func(env *Env) (bool, error) {
		v, err := fn(env)
		if err != nil {
			return false, err
		}
		return v.Bool(), nil
	}, ok
}

// selfFn is the self-mode evaluation shape threaded through CompilePredicate;
// like PredFn, self is a read-only pointer.
type selfFn func(self *object.Value, selfOID storage.OID, resolve object.Resolver) (object.Value, error)

// CompilePredicate lowers a predicate whose only free variable is varName
// into the self-mode form. ok is false — and the PredFn nil — when the tree
// references any other variable, invokes a method, or contains a node
// outside the compilable subset; callers then fall back to the environment
// path.
func CompilePredicate(e Expr, varName string) (PredFn, bool) {
	if pf, ok := compileSelfPred(e, varName); ok {
		return pf, true
	}
	fn, ok := compileSelf(e, varName)
	if !ok {
		return nil, false
	}
	return func(self *object.Value, selfOID storage.OID, resolve object.Resolver) (bool, error) {
		v, err := fn(self, selfOID, resolve)
		if err != nil {
			return false, err
		}
		return v.Bool(), nil
	}, true
}

// SelfAttrs returns the top-level attributes of varName that a self-mode
// predicate reads, in first-use order: the names of every Field whose base
// is the bare variable. ok is false when the tree reads the variable in any
// other way (bare, as in v = w, or as a method receiver), calls a method,
// mentions another variable or holds a node outside the compilable subset:
// such a predicate may need the whole object. When ok holds, a PredFn of
// e gives the same answer over the object's tuple filtered to these
// attributes as over the whole tuple (object.UnmarshalFields builds it),
// which is what lets an extent scan decode only what the predicate reads.
func SelfAttrs(e Expr, varName string) (attrs []string, ok bool) {
	var walk func(e Expr) bool
	walk = func(e Expr) bool {
		switch n := e.(type) {
		case *Const:
			return true
		case *Field:
			if v, isVar := n.Base.(*Var); isVar {
				if v.Name != varName {
					return false
				}
				if !slices.Contains(attrs, n.Name) {
					attrs = append(attrs, n.Name)
				}
				return true
			}
			return walk(n.Base)
		case *Cmp:
			return walk(n.L) && walk(n.R)
		case *Arith:
			return walk(n.L) && walk(n.R)
		case *Logic:
			return walk(n.L) && walk(n.R)
		case *Between:
			return walk(n.E) && walk(n.Lo) && walk(n.Hi)
		case *Not:
			return walk(n.E)
		case *Neg:
			return walk(n.E)
		}
		return false // Var used bare, Call, unknown nodes
	}
	if !walk(e) {
		return nil, false
	}
	return attrs, true
}

// compileSelfPred lowers the hottest scan-predicate shape — a single
// comparison between a field of self and a constant, in either operand
// order — into one closure that never constructs an intermediate Value:
// pointer field projection, then a straight-to-bool comparison. Evaluation
// order, null handling, type promotion and errors are exactly the general
// path's (projectFieldRef and applyCmpBool are the same semantic cores),
// the fuzzer holds the two equal on random rows. Any other tree reports
// ok=false and takes the generic compileSelf route.
func compileSelfPred(e Expr, varName string) (PredFn, bool) {
	n, ok := e.(*Cmp)
	if !ok {
		return nil, false
	}
	fieldOf := func(x Expr) *Field {
		f, ok := x.(*Field)
		if !ok {
			return nil
		}
		if v, ok := f.Base.(*Var); !ok || v.Name != varName {
			return nil
		}
		return f
	}
	if fld, c := fieldOf(n.L), asConst(n.R); fld != nil && c != nil {
		cv, op := c.Val, n.Op
		return func(self *object.Value, _ storage.OID, resolve object.Resolver) (bool, error) {
			l, err := projectFieldRef(self, fld.Name, resolve, fld)
			if err != nil {
				return false, err
			}
			return applyCmpBool(op, l, &cv)
		}, true
	}
	if c, fld := asConst(n.L), fieldOf(n.R); c != nil && fld != nil {
		cv, op := c.Val, n.Op
		return func(self *object.Value, _ storage.OID, resolve object.Resolver) (bool, error) {
			r, err := projectFieldRef(self, fld.Name, resolve, fld)
			if err != nil {
				return false, err
			}
			return applyCmpBool(op, &cv, r)
		}, true
	}
	return nil, false
}

func asConst(e Expr) *Const {
	c, ok := e.(*Const)
	if !ok {
		return nil
	}
	return c
}

func compileSelf(e Expr, varName string) (selfFn, bool) {
	switch n := e.(type) {
	case *Const:
		v := n.Val
		return func(*object.Value, storage.OID, object.Resolver) (object.Value, error) {
			return v, nil
		}, true

	case *Var:
		if n.Name != varName {
			return nil, false
		}
		return func(self *object.Value, _ storage.OID, _ object.Resolver) (object.Value, error) {
			return *self, nil
		}, true

	case *Field:
		// Field-over-self (c.attr) is the hot shape of every scan
		// predicate: project straight off the self pointer instead of
		// materializing the 120-byte Var result first. projectField never
		// writes through its base.
		if v, isVar := n.Base.(*Var); isVar {
			if v.Name != varName {
				return nil, false
			}
			return func(self *object.Value, _ storage.OID, resolve object.Resolver) (object.Value, error) {
				return projectField(self, n.Name, resolve, n)
			}, true
		}
		base, ok := compileSelf(n.Base, varName)
		if !ok {
			return nil, false
		}
		return func(self *object.Value, selfOID storage.OID, resolve object.Resolver) (object.Value, error) {
			b, err := base(self, selfOID, resolve)
			if err != nil {
				return object.Null, err
			}
			return projectField(&b, n.Name, resolve, n)
		}, true

	case *Cmp:
		lf, lok := compileSelf(n.L, varName)
		rf, rok := compileSelf(n.R, varName)
		if !lok || !rok {
			return nil, false
		}
		op := n.Op
		return func(self *object.Value, selfOID storage.OID, resolve object.Resolver) (object.Value, error) {
			l, err := lf(self, selfOID, resolve)
			if err != nil {
				return object.Null, err
			}
			r, err := rf(self, selfOID, resolve)
			if err != nil {
				return object.Null, err
			}
			return applyCmp(op, &l, &r)
		}, true

	case *Between:
		return compileSelf(n.desugar(), varName)

	case *Logic:
		lf, lok := compileSelf(n.L, varName)
		rf, rok := compileSelf(n.R, varName)
		if !lok || !rok {
			return nil, false
		}
		op := n.Op
		return func(self *object.Value, selfOID storage.OID, resolve object.Resolver) (object.Value, error) {
			lv, err := lf(self, selfOID, resolve)
			if err != nil {
				return object.Null, err
			}
			lb := lv.Bool()
			if op == OpAnd && !lb {
				return object.NewBool(false), nil
			}
			if op == OpOr && lb {
				return object.NewBool(true), nil
			}
			rv, err := rf(self, selfOID, resolve)
			if err != nil {
				return object.Null, err
			}
			return object.NewBool(rv.Bool()), nil
		}, true

	case *Not:
		f, ok := compileSelf(n.E, varName)
		if !ok {
			return nil, false
		}
		return func(self *object.Value, selfOID storage.OID, resolve object.Resolver) (object.Value, error) {
			v, err := f(self, selfOID, resolve)
			if err != nil {
				return object.Null, err
			}
			return object.NewBool(!v.Bool()), nil
		}, true

	case *Arith:
		lf, lok := compileSelf(n.L, varName)
		rf, rok := compileSelf(n.R, varName)
		if !lok || !rok {
			return nil, false
		}
		op := n.Op
		return func(self *object.Value, selfOID storage.OID, resolve object.Resolver) (object.Value, error) {
			l, err := lf(self, selfOID, resolve)
			if err != nil {
				return object.Null, err
			}
			r, err := rf(self, selfOID, resolve)
			if err != nil {
				return object.Null, err
			}
			return applyArith(op, &l, &r)
		}, true

	case *Neg:
		f, ok := compileSelf(n.E, varName)
		if !ok {
			return nil, false
		}
		return func(self *object.Value, selfOID storage.OID, resolve object.Resolver) (object.Value, error) {
			v, err := f(self, selfOID, resolve)
			if err != nil {
				return object.Null, err
			}
			return applyNeg(&v)
		}, true
	}
	return nil, false
}
