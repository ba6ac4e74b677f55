package algebra

import (
	"fmt"
	"sort"

	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/joinindex"
	"mood/internal/object"
	"mood/internal/storage"
)

// JoinSpec describes an implicit join between two collections: the join
// predicate left.Attribute = right.self, realized by one of the four
// strategies of Section 3.2 / 8.3 (forward traversal, indexed join through
// a binary join index, backward traversal, pointer-based hash-partition
// join).
type JoinSpec struct {
	Method    cost.JoinMethod
	LeftVar   string // range variable on the referencing side (C)
	Attribute string // A, the reference attribute of C
	RightVar  string // range variable on the referenced side (D)
	// Index supplies the binary join index for BinaryJoinIndex joins.
	Index *joinindex.BinaryJoinIndex
	// Extra is an optional residual predicate applied to merged rows.
	Extra expr.Expr
}

func (s JoinSpec) String() string {
	return fmt.Sprintf("%s.%s = %s.self [%s]", s.LeftVar, s.Attribute, s.RightVar, s.Method)
}

// JoinKind implements Table 2's return-type matrix. With the kinds ranked
// Extent > Set > List > NamedObj, the result is the higher-ranked of the
// two argument kinds.
func JoinKind(a, b Kind) Kind {
	rank := func(k Kind) int {
		switch k {
		case ExtentKind:
			return 3
		case SetKind:
			return 2
		case ListKind:
			return 1
		default:
			return 0
		}
	}
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

// Join joins left and right with the spec's strategy and returns the merged
// rows, typed per Table 2. All four strategies produce the same rows (up to
// order); they differ in the physical access pattern, which the simulated
// disk accounts.
func (a *Algebra) Join(left, right *Collection, spec JoinSpec) (*Collection, error) {
	if spec.LeftVar == "" {
		spec.LeftVar = left.Name
	}
	if spec.RightVar == "" {
		spec.RightVar = right.Name
	}
	out := &Collection{
		Kind:  JoinKind(left.Kind, right.Kind),
		Name:  spec.RightVar,
		Class: right.Class,
	}

	var rows []Row
	var err error
	switch spec.Method {
	case cost.ForwardTraversal:
		rows, err = a.joinForward(left, right, spec)
	case cost.BackwardTraversal:
		rows, err = a.joinBackward(left, right, spec)
	case cost.BinaryJoinIndex:
		rows, err = a.joinBJI(left, right, spec)
	case cost.HashPartition:
		rows, err = a.joinHashPartition(left, right, spec)
	case cost.FusionJoin:
		rows, err = a.joinFusion(left, right, spec)
	default:
		err = fmt.Errorf("algebra: unknown join method %v", spec.Method)
	}
	if err != nil {
		return nil, err
	}

	if spec.Extra != nil {
		re := a.NewRowEvaluator()
		kept := rows[:0]
		for _, r := range rows {
			ok, err := re.EvalBool(r, spec.Extra)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	out.Rows = rows
	return out, nil
}

// RefsOf extracts the reference targets of the join attribute (one for a
// plain reference, several for set/list-valued attributes).
func RefsOf(v object.Value, attr string) []storage.OID {
	av, ok := v.Field(attr)
	if !ok || av.IsNull() {
		return nil
	}
	switch av.Kind {
	case object.KindReference:
		if av.Ref.IsNil() {
			return nil
		}
		return []storage.OID{av.Ref}
	case object.KindSet, object.KindList:
		var out []storage.OID
		for _, e := range av.Elems {
			if e.Kind == object.KindReference && !e.Ref.IsNil() {
				out = append(out, e.Ref)
			}
		}
		return out
	}
	return nil
}

// RowsByOID indexes a collection's rows by the OID of the given variable.
func RowsByOID(c *Collection, varName string) map[storage.OID][]Row {
	m := make(map[storage.OID][]Row, len(c.Rows))
	for _, r := range c.Rows {
		if b, ok := r.Vars[varName]; ok && !b.OID.IsNil() {
			m[b.OID] = append(m[b.OID], r)
		}
	}
	return m
}

// joinForward drives the left side: for each left row, the reference is
// chased (a random access per referenced object — the paper's
// ftc = RNDCOST(nbpg_c) + RNDCOST(k_c·fan)) and matched against the right
// rows.
func (a *Algebra) joinForward(left, right *Collection, spec JoinSpec) ([]Row, error) {
	rightBy := RowsByOID(right, spec.RightVar)
	var out []Row
	for i := range left.Rows {
		lrow := left.Rows[i]
		lb := lrow.Vars[spec.LeftVar]
		if err := a.MaterializeBound(&lb); err != nil {
			return nil, err
		}
		lrow.Vars[spec.LeftVar] = lb
		for _, ref := range RefsOf(lb.Val, spec.Attribute) {
			// Chase the pointer: the physical dereference happens even if
			// the right side later rejects the object, as in real forward
			// traversal.
			val, _, err := a.Cat.GetObject(ref)
			if err != nil {
				return nil, err
			}
			for _, rrow := range rightBy[ref] {
				merged := lrow.Merged(rrow)
				rb := merged.Vars[spec.RightVar]
				rb.Val = val
				merged.Vars[spec.RightVar] = rb
				out = append(out, merged)
			}
		}
	}
	return out, nil
}

// joinBackward drives the right side: the extent of the left class is
// scanned sequentially (btc = SEQCOST(nbpages(C)) + CPU + SEQCOST(D)), each
// object's reference compared against the selected right objects, and rows
// restricted to the left collection.
func (a *Algebra) joinBackward(left, right *Collection, spec JoinSpec) ([]Row, error) {
	rightBy := RowsByOID(right, spec.RightVar)
	leftBy := RowsByOID(left, spec.LeftVar)
	if left.Class == "" {
		return nil, fmt.Errorf("algebra: backward traversal needs the left class")
	}
	var out []Row
	err := a.Cat.ScanClosure(left.Class, nil, func(oid storage.OID, v object.Value) bool {
		lrows, inLeft := leftBy[oid]
		if !inLeft {
			return true
		}
		for _, ref := range RefsOf(v, spec.Attribute) {
			rrows, hit := rightBy[ref]
			if !hit {
				continue
			}
			for _, lrow := range lrows {
				lb := lrow.Vars[spec.LeftVar]
				lb.Val = v
				lrow.Vars[spec.LeftVar] = lb
				for _, rrow := range rrows {
					out = append(out, lrow.Merged(rrow))
				}
			}
		}
		return true
	})
	return out, err
}

// joinBJI probes the binary join index backward from each right object
// (bjc = INDCOST(k)).
func (a *Algebra) joinBJI(left, right *Collection, spec JoinSpec) ([]Row, error) {
	if spec.Index == nil {
		return nil, fmt.Errorf("%w: binary join index for %s.%s", ErrNoIndex, left.Class, spec.Attribute)
	}
	leftBy := RowsByOID(left, spec.LeftVar)
	var out []Row
	for i := range right.Rows {
		rrow := right.Rows[i]
		rb := rrow.Vars[spec.RightVar]
		sources, err := spec.Index.Backward(rb.OID)
		if err != nil {
			return nil, err
		}
		for _, src := range sources {
			for _, lrow := range leftBy[src] {
				out = append(out, lrow.Merged(rrow))
			}
		}
	}
	return out, nil
}

// joinHashPartition hashes the left rows on the pointer field and then
// chases each *distinct* pointer once (hhc = 3·(k_c/|C|)·SEQCOST(nbpages(C))
// + RNDCOST(nbpg)), so shared targets are fetched a single time.
func (a *Algebra) joinHashPartition(left, right *Collection, spec JoinSpec) ([]Row, error) {
	rightBy := RowsByOID(right, spec.RightVar)
	// Partition phase: group left rows by referenced OID.
	partitions := make(map[storage.OID][]Row)
	for i := range left.Rows {
		lrow := left.Rows[i]
		lb := lrow.Vars[spec.LeftVar]
		if err := a.MaterializeBound(&lb); err != nil {
			return nil, err
		}
		lrow.Vars[spec.LeftVar] = lb
		for _, ref := range RefsOf(lb.Val, spec.Attribute) {
			partitions[ref] = append(partitions[ref], lrow)
		}
	}
	// Probe phase: each distinct pointer dereferenced once, in OID order —
	// partitioning clusters the probes so every page of D is visited once,
	// the locality the hhc formula's nbpg term models.
	refs := make([]storage.OID, 0, len(partitions))
	for ref := range partitions {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	var out []Row
	for _, ref := range refs {
		lrows := partitions[ref]
		rrows, hit := rightBy[ref]
		if !hit {
			continue
		}
		val, _, err := a.Cat.GetObject(ref)
		if err != nil {
			return nil, err
		}
		for _, lrow := range lrows {
			for _, rrow := range rrows {
				merged := lrow.Merged(rrow)
				rb := merged.Vars[spec.RightVar]
				rb.Val = val
				merged.Vars[spec.RightVar] = rb
				out = append(out, merged)
			}
		}
	}
	return out, nil
}

// joinFusion is the collection-fused navigation join (the Odra fusion
// algorithm): the whole left input is partitioned on the pointer field, the
// distinct targets are dereferenced in ONE page-ordered batch (fc =
// RNDCOST(nbpg_c) + RNDCOST(nbpg(D,α))), and the merged rows are
// synthesized from the fetched values — the target extent itself is never
// scanned.
func (a *Algebra) joinFusion(left, right *Collection, spec JoinSpec) ([]Row, error) {
	rightBy := RowsByOID(right, spec.RightVar)
	partitions := make(map[storage.OID][]Row)
	for i := range left.Rows {
		lrow := left.Rows[i]
		lb := lrow.Vars[spec.LeftVar]
		if err := a.MaterializeBound(&lb); err != nil {
			return nil, err
		}
		lrow.Vars[spec.LeftVar] = lb
		for _, ref := range RefsOf(lb.Val, spec.Attribute) {
			partitions[ref] = append(partitions[ref], lrow)
		}
	}
	refs := make([]storage.OID, 0, len(partitions))
	for ref := range partitions {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	vals, _, err := a.Cat.GetObjects(refs)
	if err != nil {
		return nil, err
	}
	var out []Row
	for i, ref := range refs {
		rrows, hit := rightBy[ref]
		if !hit {
			continue
		}
		for _, lrow := range partitions[ref] {
			for _, rrow := range rrows {
				merged := lrow.Merged(rrow)
				rb := merged.Vars[spec.RightVar]
				rb.Val = vals[i]
				merged.Vars[spec.RightVar] = rb
				out = append(out, merged)
			}
		}
	}
	return out, nil
}
