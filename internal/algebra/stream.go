package algebra

import (
	"fmt"

	"mood/internal/catalog"
	"mood/internal/expr"
	"mood/internal/object"
	"mood/internal/storage"
)

// This file holds the row-at-a-time forms of the algebra operators: the
// pieces the streaming executor composes into Volcano-style pipelines. The
// collection-at-a-time operators (select.go, join.go, project.go) remain the
// materializing reference implementations; both are kept behaviourally
// identical and differential-tested against each other.

// RowEvaluator evaluates predicates and projections against one row at a
// time, reusing a single expr.Env across rows. The seed executor allocated a
// fresh Env (two maps) per row inside Select's loop; hoisting it here is
// worth ~40% of Select's per-row cost on a vehicledb-sized extent (see
// BenchmarkSelectPredicate).
type RowEvaluator struct {
	a   *Algebra
	env *expr.Env
}

// NewRowEvaluator creates a reusable per-operator evaluator.
func (a *Algebra) NewRowEvaluator() *RowEvaluator {
	return &RowEvaluator{
		a: a,
		env: &expr.Env{
			Vars:    map[string]object.Value{},
			OIDs:    map[string]storage.OID{},
			Resolve: a.Cat.Resolver(),
			Invoke:  a.Invoke,
		},
	}
}

// bind loads the row's bindings into the reused env, materializing bound
// values lazily (Set/List rows carry OIDs only).
func (re *RowEvaluator) bind(row Row) error {
	for name := range re.env.Vars {
		delete(re.env.Vars, name)
	}
	for name := range re.env.OIDs {
		delete(re.env.OIDs, name)
	}
	for name, b := range row.Vars {
		if err := re.a.MaterializeBound(&b); err != nil {
			return err
		}
		re.env.Vars[name] = b.Val
		re.env.OIDs[name] = b.OID
	}
	return nil
}

// EvalBool evaluates a predicate with the row's bindings in scope.
func (re *RowEvaluator) EvalBool(row Row, p expr.Expr) (bool, error) {
	if err := re.bind(row); err != nil {
		return false, err
	}
	return expr.EvalBool(p, re.env)
}

// EvalPred evaluates a compiled predicate closure (expr.CompileBool) with
// the row's bindings in scope — the vectorized executor's counterpart of
// EvalBool for predicates that did not lower to self mode.
func (re *RowEvaluator) EvalPred(row Row, fn expr.BoolFn) (bool, error) {
	if err := re.bind(row); err != nil {
		return false, err
	}
	return fn(re.env)
}

// Eval evaluates an expression with the row's bindings in scope.
func (re *RowEvaluator) Eval(row Row, e expr.Expr) (object.Value, error) {
	if err := re.bind(row); err != nil {
		return object.Null, err
	}
	return e.Eval(re.env)
}

// Env exposes the evaluator's bound environment; valid until the next
// EvalBool/Eval/Bind call. Callers that evaluate several expressions against
// the same row bind once and evaluate through this.
func (re *RowEvaluator) Env(row Row) (*expr.Env, error) {
	if err := re.bind(row); err != nil {
		return nil, err
	}
	return re.env, nil
}

// IndSelCandidates runs just the index probe of IndSel: the OIDs the index
// reports for the simple predicate, deduplicated in lookup order, with no
// object fetches. Strict bounds and key truncation mean candidates may
// include false positives; callers must re-check RecheckExpr against the
// fetched object before accepting a candidate. Splitting the probe from the
// fetch lets the streaming executor intersect several indexes' candidate
// sets before touching a single object page.
func (a *Algebra) IndSelCandidates(class string, indexKind catalog.IndexKind, p SimplePredicate) ([]storage.OID, error) {
	ix := a.Cat.IndexOn(class, p.Attribute)
	if ix == nil || ix.Kind != indexKind {
		return nil, fmt.Errorf("%w: %s on %s.%s", ErrNoIndex, indexKind, class, p.Attribute)
	}
	var oids []storage.OID
	var err error
	switch {
	case p.Between:
		oids, err = ix.RangeLookup(p.Constant, p.Constant2)
	case p.Op == expr.OpEq:
		oids, err = ix.Lookup(p.Constant)
	case p.Op == expr.OpGe || p.Op == expr.OpGt:
		oids, err = ix.RangeLookup(p.Constant, object.Null)
	case p.Op == expr.OpLe || p.Op == expr.OpLt:
		oids, err = ix.RangeLookup(object.Null, p.Constant)
	default:
		return nil, fmt.Errorf("algebra: IndSel cannot use an index for %s", p.Op)
	}
	if err != nil {
		return nil, err
	}
	seen := make(map[storage.OID]bool, len(oids))
	out := oids[:0]
	for _, oid := range oids {
		if seen[oid] {
			continue
		}
		seen[oid] = true
		out = append(out, oid)
	}
	return out, nil
}
