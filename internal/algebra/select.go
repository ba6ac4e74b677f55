package algebra

import (
	"mood/internal/catalog"
	"mood/internal/expr"
	"mood/internal/object"
)

// Select selects the rows of arg satisfying predicate P, with the return
// types of Table 1:
//
//	arg     Extent          Set   List   Named Obj.
//	return  Extent or Set   Set   List   Named Obj.
//
// asSet controls the Extent case's choice between Extent and Set output.
func (a *Algebra) Select(arg *Collection, p expr.Expr, asSet bool) (*Collection, error) {
	outKind := arg.Kind
	if arg.Kind == ExtentKind && asSet {
		outKind = SetKind
	}
	out := &Collection{Kind: outKind, Name: arg.Name, Class: arg.Class}
	re := a.NewRowEvaluator()
	for i := range arg.Rows {
		row := arg.Rows[i]
		ok, err := re.EvalBool(row, p)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// SimplePredicate is the triplet <P1, θ, oprnd> of Section 4.1 restricted
// to an indexable form: an atomic attribute of the bound class compared
// with a constant.
type SimplePredicate struct {
	Attribute string
	Op        expr.CmpOp
	Constant  object.Value
	Constant2 object.Value // BETWEEN upper bound
	Between   bool
}

// IndSel selects the set of object identifiers satisfying the simple
// predicate from the extent of the named class (or group of extents: the
// IS-A closure) using an index of the requested kind — IndSel(arg,
// index_type, P). The return value is a Set of object identifiers, per the
// paper. ErrNoIndex is returned when no index of that kind exists on the
// attribute. With allowed set, only objects of the classes it names are
// selected; nil admits every class the index holds.
func (a *Algebra) IndSel(class, bindName string, indexKind catalog.IndexKind, p SimplePredicate, allowed map[string]bool) (*Collection, error) {
	oids, err := a.IndSelCandidates(class, indexKind, p)
	if err != nil {
		return nil, err
	}
	// Strict bounds and key truncation require re-checking the base
	// predicate against the stored objects.
	out := &Collection{Kind: SetKind, Name: bindName, Class: class}
	pred := a.RecheckExpr(bindName, p)
	re := a.NewRowEvaluator()
	for _, oid := range oids {
		v, name, err := a.Cat.GetObject(oid)
		if err != nil {
			return nil, err
		}
		if allowed != nil && !allowed[name] {
			continue
		}
		row := Row{Vars: map[string]Bound{bindName: {OID: oid, Val: v}}}
		ok, err := re.EvalBool(row, pred)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, Row{Vars: map[string]Bound{bindName: {OID: oid}}})
		}
	}
	return out, nil
}

// RecheckExpr rebuilds the expression form of a simple predicate, for
// re-checking index candidates against the stored objects.
func (a *Algebra) RecheckExpr(bindName string, p SimplePredicate) expr.Expr {
	attr := expr.Path(bindName, p.Attribute)
	if p.Between {
		return &expr.Between{E: attr, Lo: &expr.Const{Val: p.Constant}, Hi: &expr.Const{Val: p.Constant2}}
	}
	return &expr.Cmp{Op: p.Op, L: attr, R: &expr.Const{Val: p.Constant}}
}
