package catalog

import (
	"bytes"
	"fmt"

	"mood/internal/btree"
	"mood/internal/hashidx"
	"mood/internal/object"
	"mood/internal/storage"
)

// IndexKind distinguishes the two ESM-provided indexing mechanisms the
// paper's IndSel operator can use: "B+-tree indexing and hash indexing
// supported through the Exodus Storage Manager".
type IndexKind uint8

// Index kinds.
const (
	BTreeIndex IndexKind = iota
	HashIndex
)

func (k IndexKind) String() string {
	if k == HashIndex {
		return "hash"
	}
	return "btree"
}

// Index is a secondary index over one atomic attribute of a class.
type Index struct {
	Name      string
	Class     string
	Attribute string
	Kind      IndexKind
	Unique    bool
	KeySize   int

	btree *btree.Tree
	hash  *hashidx.Index
	attrT *object.Type
}

// BTree returns the underlying B+ tree (nil for hash indexes); the cost
// model reads its Table 9 statistics from here.
func (ix *Index) BTree() *btree.Tree { return ix.btree }

// defaultKeySize picks the fixed key size for an attribute type.
func defaultKeySize(t *object.Type) int {
	switch t.Kind {
	case object.KindInteger, object.KindLongInteger, object.KindFloat, object.KindChar, object.KindBoolean:
		return 8
	case object.KindString:
		if t.StrLen > 0 && t.StrLen <= 64 {
			return t.StrLen
		}
		return 32
	case object.KindReference:
		return 8
	}
	return 16
}

// EncodeKey converts an attribute value into its order-preserving index key.
// Strings longer than the key size are truncated (range scans remain
// conservative; exact-match consumers re-verify against the base object).
func EncodeKey(t *object.Type, v object.Value, keySize int) ([]byte, error) {
	switch v.Kind {
	case object.KindInteger, object.KindLongInteger, object.KindChar, object.KindBoolean:
		return btree.EncodeIntKey(v.Int), nil
	case object.KindFloat:
		return btree.EncodeFloatKey(v.Flt), nil
	case object.KindString:
		b := []byte(v.Str)
		if len(b) > keySize {
			b = b[:keySize]
		}
		return b, nil
	case object.KindReference:
		return btree.EncodeIntKey(int64(v.Ref)), nil
	case object.KindNull:
		return nil, nil // nulls are not indexed
	}
	return nil, fmt.Errorf("catalog: cannot index %s value", v.Kind)
}

// CreateIndex builds a secondary index on class.attribute and backfills it
// from the extent. The attribute may be inherited.
func (c *Catalog) CreateIndex(name, class, attribute string, kind IndexKind, unique bool) (*Index, error) {
	c.mu.Lock()
	if _, dup := c.indexes[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: index %s", ErrDuplicateName, name)
	}
	c.mu.Unlock()

	attrT, err := c.AttributeType(class, attribute)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		Name:      name,
		Class:     class,
		Attribute: attribute,
		Kind:      kind,
		Unique:    unique,
		KeySize:   defaultKeySize(attrT),
		attrT:     attrT,
	}
	switch kind {
	case BTreeIndex:
		tr, err := btree.New(c.store.Pool(), ix.KeySize, unique)
		if err != nil {
			return nil, err
		}
		ix.btree = tr
	case HashIndex:
		h, err := hashidx.New(c.store.Pool())
		if err != nil {
			return nil, err
		}
		ix.hash = h
	}

	// Backfill from the extent (and subclass extents: an index on C serves
	// every object reachable via C's IS-A closure).
	var ierr error
	err = c.ScanClosure(class, nil, func(oid storage.OID, v object.Value) bool {
		if ierr = ix.insert(v, oid); ierr != nil {
			return false
		}
		return true
	})
	if err == nil {
		err = ierr
	}
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	c.indexes[name] = ix
	c.mu.Unlock()
	if err := c.persistIndex(ix); err != nil {
		return nil, err
	}
	return ix, nil
}

// DropIndex removes an index.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[name]; !ok {
		return fmt.Errorf("catalog: no index %s", name)
	}
	delete(c.indexes, name)
	if oid, ok := c.idxOIDs[name]; ok {
		delete(c.idxOIDs, name)
		return c.store.Delete(oid)
	}
	return nil
}

// IndexOn returns an index on class.attribute (preferring B+ trees, which
// serve both equality and ranges) or nil. Inherited classes are consulted:
// an index on a superclass attribute serves the subclass.
func (c *Catalog) IndexOn(class, attribute string) *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var hash *Index
	for _, ix := range c.indexes {
		if ix.Attribute != attribute {
			continue
		}
		if ix.Class == class || c.isALocked(class, ix.Class, map[string]bool{}) {
			if ix.Kind == BTreeIndex {
				return ix
			}
			hash = ix
		}
	}
	return hash
}

// Indexes returns every index, unordered.
func (c *Catalog) Indexes() []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	return out
}

// Lookup returns the OIDs whose indexed attribute equals v.
func (ix *Index) Lookup(v object.Value) ([]storage.OID, error) {
	key, err := EncodeKey(ix.attrT, v, ix.KeySize)
	if err != nil || key == nil {
		return nil, err
	}
	if ix.hash != nil {
		return ix.hash.Search(key)
	}
	return ix.btree.Search(key)
}

// RangeLookup returns the OIDs whose indexed attribute lies in [lo, hi]
// (nil for open ends). Only B+ tree indexes support ranges.
func (ix *Index) RangeLookup(lo, hi object.Value) ([]storage.OID, error) {
	if ix.btree == nil {
		return nil, fmt.Errorf("catalog: index %s is a hash index; range scans need a B+ tree", ix.Name)
	}
	var lk, hk []byte
	var err error
	if !lo.IsNull() {
		if lk, err = EncodeKey(ix.attrT, lo, ix.KeySize); err != nil {
			return nil, err
		}
	}
	if !hi.IsNull() {
		if hk, err = EncodeKey(ix.attrT, hi, ix.KeySize); err != nil {
			return nil, err
		}
	}
	var out []storage.OID
	err = ix.btree.Range(lk, hk, func(_ []byte, oid storage.OID) bool {
		out = append(out, oid)
		return true
	})
	return out, err
}

// key returns the object's index key, nil when the attribute is absent or
// null (nulls are not indexed).
func (ix *Index) key(v object.Value) ([]byte, error) {
	av, ok := v.Field(ix.Attribute)
	if !ok || av.IsNull() {
		return nil, nil
	}
	return EncodeKey(ix.attrT, av, ix.KeySize)
}

// sameKey reports whether old and new carry the same index key, so an
// update from one to the other leaves the index as it is.
func (ix *Index) sameKey(old, new object.Value) (bool, error) {
	ko, err := ix.key(old)
	if err != nil {
		return false, err
	}
	kn, err := ix.key(new)
	if err != nil {
		return false, err
	}
	return (ko == nil) == (kn == nil) && bytes.Equal(ko, kn), nil
}

func (ix *Index) insert(v object.Value, oid storage.OID) error {
	key, err := ix.key(v)
	if err != nil || key == nil {
		return err
	}
	if ix.hash != nil {
		return ix.hash.Insert(key, oid)
	}
	return ix.btree.Insert(key, oid)
}

func (ix *Index) remove(v object.Value, oid storage.OID) error {
	key, err := ix.key(v)
	if err != nil || key == nil {
		return err
	}
	if ix.hash != nil {
		err = ix.hash.Delete(key, oid)
		if err == hashidx.ErrNotFound {
			return nil
		}
		return err
	}
	err = ix.btree.Delete(key, oid)
	if err == btree.ErrNotFound {
		return nil
	}
	return err
}

// indexInsert maintains every index applicable to an object of the class
// (indexes declared on the class or any of its superclasses).
func (c *Catalog) indexInsert(class string, v object.Value, oid storage.OID) error {
	for _, ix := range c.applicableIndexes(class) {
		if err := ix.insert(v, oid); err != nil {
			return err
		}
	}
	return nil
}

func (c *Catalog) indexDelete(class string, v object.Value, oid storage.OID) error {
	for _, ix := range c.applicableIndexes(class) {
		if err := ix.remove(v, oid); err != nil {
			return err
		}
	}
	return nil
}

func (c *Catalog) applicableIndexes(class string) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Index
	for _, ix := range c.indexes {
		if ix.Class == class || c.isALocked(class, ix.Class, map[string]bool{}) {
			out = append(out, ix)
		}
	}
	return out
}
