package algebra

import (
	"fmt"
	"slices"

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
//
// An evaluator made by NewSlotEvaluator binds row vectors instead of Rows:
// the environment points at the row, so binding one costs no map writes.
type RowEvaluator struct {
	a   *Algebra
	env *expr.Env

	schema  []int   // slot mode: the slots the rows bind, ascending
	scratch []Bound // slot mode: a row copy whose OID-only bindings are materialized
	one     []Bound // slot mode: BindOne's row
}

// NewSlotEvaluator creates a reusable evaluator over row vectors whose
// bindings sit in the slots that slots names — the layout the expressions
// it runs were compiled against (expr.Compile).
func (a *Algebra) NewSlotEvaluator(slots map[string]int) *RowEvaluator {
	re := &RowEvaluator{
		a:   a,
		env: &expr.Env{Slots: slots, Resolve: a.Cat.Resolver(), Invoke: a.Invoke},
	}
	for _, s := range slots {
		re.schema = append(re.schema, s)
	}
	slices.Sort(re.schema)
	return re
}

// SlotEnv binds a row vector, valid until the next SlotEnv call. As for a
// Row, every binding that carries only an OID is materialized first; the
// row itself is never written, so such a row is evaluated from a copy.
func (re *RowEvaluator) SlotEnv(row []Bound) (*expr.Env, error) {
	src := row
	for _, s := range re.schema {
		if b := &src[s]; b.Val.IsNull() && !b.OID.IsNil() {
			if len(re.scratch) == 0 || &src[0] != &re.scratch[0] {
				re.scratch = append(re.scratch[:0], row...)
				src = re.scratch
			}
			if err := re.a.MaterializeBound(&src[s]); err != nil {
				return nil, err
			}
		}
	}
	re.env.Row = src
	return re.env, nil
}

// BindOne binds a row vector in which only slot is bound, to b — an
// object's candidate row, checked before the operator builds the row it
// emits. Valid until the next bind.
func (re *RowEvaluator) BindOne(slot int, b Bound) (*expr.Env, error) {
	if len(re.one) <= slot {
		re.one = make([]Bound, slot+1)
	}
	re.one[slot] = b
	return re.SlotEnv(re.one)
}

// EvalSlots evaluates a compiled predicate against a row vector.
func (re *RowEvaluator) EvalSlots(row []Bound, fn expr.BoolFn) (bool, error) {
	env, err := re.SlotEnv(row)
	if err != nil {
		return false, err
	}
	return fn(env)
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
