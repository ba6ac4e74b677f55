// Package joinindex implements binary join indices and path indices — two
// of the access paths MOOD's Join operator and the optimizer's join
// strategies rely on (Sections 3.2, 6.3, 8.3). A binary join index
// materializes the pairs (oid_C, oid_D) induced by a reference attribute
// C.A; a path index materializes (oid_{C_1}, oid_{C_m}) for a whole path,
// collapsing the intermediate hops. Both directions are indexed, so forward
// and backward lookups cost one B+-tree probe (the paper's bjc = INDCOST(k)).
package joinindex

import (
	"fmt"
	"sync"

	"mood/internal/btree"
	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/object"
	"mood/internal/storage"
)

// BinaryJoinIndex materializes the object pairs induced by one reference
// attribute. It is maintained: the kernel routes every object mutation of
// the indexed class through Maintain, so the pair set tracks the extent.
// Lookups and maintenance may run concurrently; a RWMutex serializes
// writers against the probe paths.
type BinaryJoinIndex struct {
	Class     string // C
	Attribute string // A
	Target    string // D

	mu  sync.RWMutex
	fwd *btree.Tree // oid_C -> oid_D
	rev *btree.Tree // oid_D -> oid_C
	cat *catalog.Catalog
}

// BuildBJI scans the extent closure of class and materializes the pairs for
// its reference attribute (plain references and set/list-of-reference
// attributes both work).
func BuildBJI(cat *catalog.Catalog, class, attribute string) (*BinaryJoinIndex, error) {
	at, err := cat.AttributeType(class, attribute)
	if err != nil {
		return nil, err
	}
	target := ""
	switch at.Kind {
	case object.KindReference:
		target = at.Target
	case object.KindSet, object.KindList:
		if at.Elem != nil && at.Elem.Kind == object.KindReference {
			target = at.Elem.Target
		}
	}
	if target == "" {
		return nil, fmt.Errorf("joinindex: %s.%s is not a reference attribute", class, attribute)
	}
	bp := cat.Store().Pool()
	fwd, err := btree.New(bp, 8, false)
	if err != nil {
		return nil, err
	}
	rev, err := btree.New(bp, 8, false)
	if err != nil {
		return nil, err
	}
	ix := &BinaryJoinIndex{Class: class, Attribute: attribute, Target: target, fwd: fwd, rev: rev, cat: cat}
	var ierr error
	err = cat.ScanClosure(class, nil, func(oid storage.OID, v object.Value) bool {
		av, ok := v.Field(attribute)
		if !ok || av.IsNull() {
			return true
		}
		ierr = ix.Insert(oid, av)
		return ierr == nil
	})
	if err == nil {
		err = ierr
	}
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// NewBJI creates an empty maintained binary join index over the pool — the
// storage-level constructor the crash harness uses; BuildBJI is the
// catalog-driven kernel path.
func NewBJI(bp *storage.BufferPool, class, attribute, target string) (*BinaryJoinIndex, error) {
	fwd, err := btree.New(bp, 8, false)
	if err != nil {
		return nil, err
	}
	rev, err := btree.New(bp, 8, false)
	if err != nil {
		return nil, err
	}
	return &BinaryJoinIndex{Class: class, Attribute: attribute, Target: target, fwd: fwd, rev: rev}, nil
}

// OpenBJI re-attaches to a binary join index whose trees survive at the
// given roots (after a crash and WAL recovery). Statistics are recomputed by
// the tree walk; the catalog may be nil for storage-level harnesses that
// only exercise Insert/Remove/Forward/Backward.
func OpenBJI(bp *storage.BufferPool, class, attribute, target string, fwdRoot, revRoot storage.PageID) (*BinaryJoinIndex, error) {
	fwd, err := btree.Open(bp, fwdRoot, 8, false)
	if err != nil {
		return nil, err
	}
	rev, err := btree.Open(bp, revRoot, 8, false)
	if err != nil {
		return nil, err
	}
	return &BinaryJoinIndex{Class: class, Attribute: attribute, Target: target, fwd: fwd, rev: rev}, nil
}

// oidKey encodes an OID as an order-preserving 8-byte tree key. The encoding
// is injective over the full 64-bit OID — the shard tag in bits 60–63
// included — so entries from different shards of a sharded store can never
// collide, and a probe result routes back to its owning shard's store.
func oidKey(oid storage.OID) []byte { return btree.EncodeIntKey(int64(oid)) }

// SetLogger attaches a WAL page logger to both trees, so index maintenance
// is page-image logged and replayed/undone by recovery. nil detaches.
func (ix *BinaryJoinIndex) SetLogger(l storage.PageLogger) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.fwd.SetLogger(l)
	ix.rev.SetLogger(l)
}

// Roots returns the two tree roots for persistence and crash re-attach.
func (ix *BinaryJoinIndex) Roots() (fwd, rev storage.PageID) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.fwd.Root(), ix.rev.Root()
}

// Insert adds the pairs for one source object's attribute value.
func (ix *BinaryJoinIndex) Insert(src storage.OID, attr object.Value) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.insertLocked(src, attr)
}

func (ix *BinaryJoinIndex) insertLocked(src storage.OID, attr object.Value) error {
	add := func(dst storage.OID) error {
		if dst.IsNil() {
			return nil
		}
		if err := ix.fwd.Insert(oidKey(src), dst); err != nil {
			return err
		}
		return ix.rev.Insert(oidKey(dst), src)
	}
	switch attr.Kind {
	case object.KindReference:
		return add(attr.Ref)
	case object.KindSet, object.KindList:
		for _, e := range attr.Elems {
			if e.Kind == object.KindReference {
				if err := add(e.Ref); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Remove deletes the pairs for one source object's attribute value.
func (ix *BinaryJoinIndex) Remove(src storage.OID, attr object.Value) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.removeLocked(src, attr)
}

func (ix *BinaryJoinIndex) removeLocked(src storage.OID, attr object.Value) error {
	del := func(dst storage.OID) error {
		if dst.IsNil() {
			return nil
		}
		if err := ix.fwd.Delete(oidKey(src), dst); err != nil && err != btree.ErrNotFound {
			return err
		}
		if err := ix.rev.Delete(oidKey(dst), src); err != nil && err != btree.ErrNotFound {
			return err
		}
		return nil
	}
	switch attr.Kind {
	case object.KindReference:
		return del(attr.Ref)
	case object.KindSet, object.KindList:
		for _, e := range attr.Elems {
			if e.Kind == object.KindReference {
				if err := del(e.Ref); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Unchanged reports whether an attribute change from old to new leaves a
// binary join index's pairs as they are: both null, the same reference, or
// the same references in the same order. Maintain is a no-op then.
func Unchanged(old, new object.Value) bool {
	if old.Kind != new.Kind {
		return false
	}
	switch old.Kind {
	case object.KindNull:
		return true
	case object.KindReference:
		return old.Ref == new.Ref
	case object.KindSet, object.KindList:
		if len(old.Elems) != len(new.Elems) {
			return false
		}
		for i, e := range old.Elems {
			if e.Kind != new.Elems[i].Kind || e.Ref != new.Elems[i].Ref {
				return false
			}
		}
		return true
	}
	return false
}

// Maintain applies one object mutation to the index under a single writer
// critical section: old and new are the source object's attribute values
// before and after the change. A create passes a null old, a delete a null
// new; an Unchanged attribute is a no-op.
func (ix *BinaryJoinIndex) Maintain(src storage.OID, old, new object.Value) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if Unchanged(old, new) {
		return nil
	}
	if !old.IsNull() {
		if err := ix.removeLocked(src, old); err != nil {
			return err
		}
	}
	if !new.IsNull() {
		return ix.insertLocked(src, new)
	}
	return nil
}

// Forward returns the target OIDs referenced by src.
func (ix *BinaryJoinIndex) Forward(src storage.OID) ([]storage.OID, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.fwd.Search(oidKey(src))
}

// Backward returns the source OIDs referencing dst.
func (ix *BinaryJoinIndex) Backward(dst storage.OID) ([]storage.OID, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.rev.Search(oidKey(dst))
}

// Len returns the number of materialized pairs.
func (ix *BinaryJoinIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.fwd.Len()
}

// CostStats returns the forward tree's Table 9 parameters for the bjc
// formula.
func (ix *BinaryJoinIndex) CostStats() cost.BTreeStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := ix.fwd.Stats()
	return cost.BTreeStats{Order: st.Order, Levels: st.Levels, Leaves: st.Leaves, KeySize: st.KeySize}
}

// PathIndex materializes (start, end) pairs for a multi-hop reference path
// C_1.A_1...A_n (Kemper/Moerkotte-style access support relation, which the
// paper cites as [Kem 90]).
type PathIndex struct {
	Class string   // C_1
	Path  []string // A_1 ... A_n

	fwd *btree.Tree // oid_{C_1} -> oid_{C_{n+1}}
	rev *btree.Tree
}

// BuildPathIndex scans the extent closure of class and materializes the
// endpoints of every instantiation of the path.
func BuildPathIndex(cat *catalog.Catalog, class string, path []string) (*PathIndex, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("joinindex: empty path")
	}
	if _, err := cat.IsAPath(class, path); err != nil {
		return nil, err
	}
	bp := cat.Store().Pool()
	fwd, err := btree.New(bp, 8, false)
	if err != nil {
		return nil, err
	}
	rev, err := btree.New(bp, 8, false)
	if err != nil {
		return nil, err
	}
	ix := &PathIndex{Class: class, Path: path, fwd: fwd, rev: rev}

	// Walk each starting object's path, fanning out through collections.
	var ierr error
	err = cat.ScanClosure(class, nil, func(start storage.OID, v object.Value) bool {
		ends := []object.Value{v}
		for _, attr := range path {
			var next []object.Value
			for _, cur := range ends {
				if cur.Kind == object.KindReference {
					if cur.Ref.IsNil() {
						continue
					}
					resolved, _, err := cat.GetObject(cur.Ref)
					if err != nil {
						ierr = err
						return false
					}
					cur = resolved
				}
				av, ok := cur.Field(attr)
				if !ok || av.IsNull() {
					continue
				}
				switch av.Kind {
				case object.KindSet, object.KindList:
					next = append(next, av.Elems...)
				default:
					next = append(next, av)
				}
			}
			ends = next
		}
		for _, e := range ends {
			if e.Kind != object.KindReference || e.Ref.IsNil() {
				continue
			}
			if ierr = fwd.Insert(oidKey(start), e.Ref); ierr != nil {
				return false
			}
			if ierr = rev.Insert(oidKey(e.Ref), start); ierr != nil {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = ierr
	}
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// Forward returns the path endpoints reachable from start.
func (ix *PathIndex) Forward(start storage.OID) ([]storage.OID, error) {
	return ix.fwd.Search(oidKey(start))
}

// Backward returns the starting objects whose path reaches end.
func (ix *PathIndex) Backward(end storage.OID) ([]storage.OID, error) {
	return ix.rev.Search(oidKey(end))
}

// Len returns the number of materialized endpoint pairs.
func (ix *PathIndex) Len() int { return ix.fwd.Len() }

// CostStats returns Table 9 parameters for the forward tree.
func (ix *PathIndex) CostStats() cost.BTreeStats {
	st := ix.fwd.Stats()
	return cost.BTreeStats{Order: st.Order, Levels: st.Levels, Leaves: st.Leaves, KeySize: st.KeySize}
}
