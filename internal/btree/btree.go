// Package btree implements a page-based B+ tree index over the buffer pool,
// the "B+-tree indexing ... supported through the Exodus Storage Manager"
// that MOOD's IndSel algebra operator and the INDCOST/RNGXCOST cost formulas
// rely on. Keys are fixed-size byte strings (the paper's keysize(I)
// parameter); values are object identifiers. Duplicate keys are supported
// unless the index is created unique. The tree exposes exactly the Table 9
// statistics: order v(I), level(I), leaves(I), keysize(I), unique(I).
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"mood/internal/storage"
)

// Node layout within one page (after the common 16-byte page header):
//
//	16      isLeaf   (u8)
//	17      pad
//	18..20  nkeys    (u16)
//	20..24  rightmost child page (u32, internal nodes only)
//	24..    entries: key[keySize] ++ value (u64)
//
// For internal nodes, entry i's value is the child whose keys are < key i
// (rightmost holds keys >= the last key). Leaf pages use the page header's
// NextPage field as the right-sibling link for range scans.
const (
	nodeHeaderSize = 8 // after the 16-byte page header
	offIsLeaf      = 16
	offNKeys       = 18
	offRightmost   = 20
	entriesStart   = 24
)

// Errors returned by the tree.
var (
	ErrDuplicateKey = errors.New("btree: duplicate key in unique index")
	ErrKeyTooLarge  = errors.New("btree: key exceeds index key size")
	ErrNotFound     = errors.New("btree: key not found")
)

// Tree is a B+ tree index.
type Tree struct {
	bp      *storage.BufferPool
	root    storage.PageID
	keySize int
	unique  bool
	logger  storage.PageLogger

	// The Table 9 counters are atomics: the optimizer reads them through
	// Stats while writers' index maintenance moves them.
	height  atomic.Int64 // number of levels, leaves included
	leaves  atomic.Int64
	entries atomic.Int64
}

// SetLogger attaches a WAL page logger: from then on every page the tree
// mutates (inserts, deletes, splits, node initialization) is logged as a
// whole-page before/after image and stamped with the returned LSN before its
// dirty unpin, so tree maintenance participates in ARIES recovery exactly
// like the storage layer's migrations. A failed log append restores the
// frame to its before-image, so an unlogged mutation can never reach disk;
// the in-memory tree should then be re-Opened from its last committed root.
// nil detaches.
func (t *Tree) SetLogger(l storage.PageLogger) { t.logger = l }

// snap captures a page's before-image; nil when no logger is attached.
func (t *Tree) snap(pg *storage.Page) []byte {
	if t.logger == nil {
		return nil
	}
	b := pg.Bytes()
	img := make([]byte, len(b))
	copy(img, b)
	return img
}

// unpinLogged logs the page's whole-image update (before → current frame)
// through the attached logger, stamps the LSN, and unpins dirty. With no
// logger it is a plain dirty unpin.
func (t *Tree) unpinLogged(pg *storage.Page, before []byte) error {
	if t.logger == nil {
		return t.bp.Unpin(pg.ID, true)
	}
	b := pg.Bytes()
	after := make([]byte, len(b))
	copy(after, b)
	lsn, err := t.logger(pg.ID, 0, before, after)
	if err != nil {
		copy(b, before)
		t.bp.Unpin(pg.ID, false)
		return err
	}
	pg.SetLSN(lsn)
	return t.bp.Unpin(pg.ID, true)
}

// New creates an empty B+ tree with fixed key size. unique rejects
// duplicate keys on insert.
func New(bp *storage.BufferPool, keySize int, unique bool) (*Tree, error) {
	if keySize <= 0 || keySize > 512 {
		return nil, fmt.Errorf("btree: invalid key size %d", keySize)
	}
	t := &Tree{bp: bp, keySize: keySize, unique: unique}
	t.height.Store(1)
	t.leaves.Store(1)
	pg, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	t.initNode(pg, true)
	t.root = pg.ID
	if err := bp.Unpin(pg.ID, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Root returns the root page (for persistence in a catalog record).
func (t *Tree) Root() storage.PageID { return t.root }

// Open re-attaches to an existing tree. Statistics (height/leaves/entries)
// are recomputed by walking the leftmost spine and leaf chain.
func Open(bp *storage.BufferPool, root storage.PageID, keySize int, unique bool) (*Tree, error) {
	t := &Tree{bp: bp, root: root, keySize: keySize, unique: unique}
	// Walk down the leftmost spine to find height.
	pid := root
	for {
		pg, err := bp.Fetch(pid)
		if err != nil {
			return nil, err
		}
		t.height.Add(1)
		leaf := pg.Bytes()[offIsLeaf] == 1
		var next storage.PageID
		if !leaf {
			if t.nkeys(pg) > 0 {
				next = storage.PageID(binary.LittleEndian.Uint64(t.entry(pg, 0)[t.keySize:]))
			} else {
				next = t.rightmost(pg)
			}
		}
		if err := bp.Unpin(pid, false); err != nil {
			return nil, err
		}
		if leaf {
			break
		}
		pid = next
	}
	// Walk the leaf chain for leaves/entries.
	for pid != 0 {
		pg, err := bp.Fetch(pid)
		if err != nil {
			return nil, err
		}
		t.leaves.Add(1)
		t.entries.Add(int64(t.nkeys(pg)))
		next := pg.NextPage()
		if err := bp.Unpin(pid, false); err != nil {
			return nil, err
		}
		pid = next
	}
	return t, nil
}

// Stats is the Table 9 parameter block for an index, plus entry count.
type Stats struct {
	Order   int  // v(I): minimum fan-out (half the node capacity)
	Levels  int  // level(I)
	Leaves  int  // leaves(I)
	KeySize int  // keysize(I)
	Unique  bool // unique(I)
	Entries int
}

// Stats returns the current Table 9 statistics of the index.
func (t *Tree) Stats() Stats {
	return Stats{
		Order:   t.capacity() / 2,
		Levels:  int(t.height.Load()),
		Leaves:  int(t.leaves.Load()),
		KeySize: t.keySize,
		Unique:  t.unique,
		Entries: int(t.entries.Load()),
	}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return int(t.entries.Load()) }

func (t *Tree) entrySize() int { return t.keySize + 8 }

// capacity returns the number of entries a node may hold steady-state; one
// extra entry of slack remains in the page so a node can briefly overfill
// before it is split.
func (t *Tree) capacity() int {
	return (t.bp.Disk().PageSize()-entriesStart)/t.entrySize() - 1
}

func (t *Tree) initNode(pg *storage.Page, leaf bool) {
	b := pg.Bytes()
	for i := range b {
		b[i] = 0
	}
	b[offIsLeaf] = 0
	if leaf {
		b[offIsLeaf] = 1
	}
	binary.LittleEndian.PutUint16(b[offNKeys:], 0)
}

func (t *Tree) isLeaf(pg *storage.Page) bool { return pg.Bytes()[offIsLeaf] == 1 }
func (t *Tree) nkeys(pg *storage.Page) int {
	return int(binary.LittleEndian.Uint16(pg.Bytes()[offNKeys:]))
}
func (t *Tree) setNKeys(pg *storage.Page, n int) {
	binary.LittleEndian.PutUint16(pg.Bytes()[offNKeys:], uint16(n))
}
func (t *Tree) rightmost(pg *storage.Page) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(pg.Bytes()[offRightmost:]))
}
func (t *Tree) setRightmost(pg *storage.Page, id storage.PageID) {
	binary.LittleEndian.PutUint32(pg.Bytes()[offRightmost:], uint32(id))
}

// entry returns the i-th entry slice (key ++ value) aliasing the page.
func (t *Tree) entry(pg *storage.Page, i int) []byte {
	off := entriesStart + i*t.entrySize()
	return pg.Bytes()[off : off+t.entrySize()]
}

func (t *Tree) key(pg *storage.Page, i int) []byte { return t.entry(pg, i)[:t.keySize] }
func (t *Tree) value(pg *storage.Page, i int) uint64 {
	return binary.LittleEndian.Uint64(t.entry(pg, i)[t.keySize:])
}

// insertAt shifts entries right and writes (key,value) at position i.
func (t *Tree) insertAt(pg *storage.Page, i int, key []byte, value uint64) {
	n := t.nkeys(pg)
	es := t.entrySize()
	b := pg.Bytes()
	start := entriesStart + i*es
	copy(b[start+es:entriesStart+(n+1)*es], b[start:entriesStart+n*es])
	copy(b[start:], key)
	binary.LittleEndian.PutUint64(b[start+t.keySize:], value)
	t.setNKeys(pg, n+1)
}

// removeAt deletes entry i.
func (t *Tree) removeAt(pg *storage.Page, i int) {
	n := t.nkeys(pg)
	es := t.entrySize()
	b := pg.Bytes()
	start := entriesStart + i*es
	copy(b[start:], b[start+es:entriesStart+n*es])
	t.setNKeys(pg, n-1)
}

// padKey normalizes a key to the fixed key size.
func (t *Tree) padKey(key []byte) ([]byte, error) {
	if len(key) > t.keySize {
		return nil, fmt.Errorf("%w: %d > %d", ErrKeyTooLarge, len(key), t.keySize)
	}
	if len(key) == t.keySize {
		return key, nil
	}
	out := make([]byte, t.keySize)
	copy(out, key)
	return out, nil
}

// search returns the index of the first entry with key >= target.
func (t *Tree) search(pg *storage.Page, target []byte) int {
	lo, hi := 0, t.nkeys(pg)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.key(pg, mid), target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the separator position whose child should receive
// target. Equal keys route right (duplicate runs grow on the right), so the
// index advances past separators equal to target.
func (t *Tree) childIndex(pg *storage.Page, target []byte) int {
	i := t.search(pg, target)
	for i < t.nkeys(pg) && bytes.Equal(t.key(pg, i), target) {
		i++
	}
	return i
}

// childAt returns the child pointer at separator position i (the rightmost
// child when i equals the key count).
func (t *Tree) childAt(pg *storage.Page, i int) storage.PageID {
	if i == t.nkeys(pg) {
		return t.rightmost(pg)
	}
	return storage.PageID(t.value(pg, i))
}

// childFor returns the child page to descend into for target.
func (t *Tree) childFor(pg *storage.Page, target []byte) storage.PageID {
	return t.childAt(pg, t.childIndex(pg, target))
}

// Insert adds (key, oid). Keys shorter than the index key size are
// zero-padded (order-preserving for the Encode* helpers).
func (t *Tree) Insert(key []byte, oid storage.OID) error {
	k, err := t.padKey(key)
	if err != nil {
		return err
	}
	if t.unique {
		if _, found, err := t.first(k); err != nil {
			return err
		} else if found {
			return fmt.Errorf("%w: %x", ErrDuplicateKey, k)
		}
	}
	promoted, newChild, err := t.insertRec(t.root, k, uint64(oid))
	if err != nil {
		return err
	}
	if newChild != 0 {
		// Root split: grow the tree by one level.
		pg, err := t.bp.NewPage()
		if err != nil {
			return err
		}
		before := t.snap(pg)
		t.initNode(pg, false)
		t.insertAt(pg, 0, promoted, uint64(t.root))
		t.setRightmost(pg, newChild)
		t.root = pg.ID
		t.height.Add(1)
		if err := t.unpinLogged(pg, before); err != nil {
			return err
		}
	}
	t.entries.Add(1)
	return nil
}

// insertRec descends to the leaf, inserts, and propagates splits upward.
// It returns a promoted separator key and the new right sibling page if the
// node split, else (nil, 0).
func (t *Tree) insertRec(pid storage.PageID, key []byte, value uint64) ([]byte, storage.PageID, error) {
	pg, err := t.bp.Fetch(pid)
	if err != nil {
		return nil, 0, err
	}
	if t.isLeaf(pg) {
		before := t.snap(pg)
		i := t.search(pg, key)
		t.insertAt(pg, i, key, value)
		if t.nkeys(pg) <= t.capacity() {
			return nil, 0, t.unpinLogged(pg, before)
		}
		sep, sib, serr := t.splitLeaf(pg)
		if uerr := t.unpinLogged(pg, before); uerr != nil && serr == nil {
			serr = uerr
		}
		return sep, sib, serr
	}
	child := t.childFor(pg, key)
	if err := t.bp.Unpin(pid, false); err != nil {
		return nil, 0, err
	}
	promoted, newChild, err := t.insertRec(child, key, value)
	if err != nil || newChild == 0 {
		return nil, 0, err
	}
	// Insert the promoted separator into this node at the exact position of
	// the child that split (recomputed with the same routing rule used for
	// the descent, so duplicate separators cannot misplace it). The split
	// child keeps the low keys, the new sibling the high ones; so at slot i
	// we store (promoted, child) and the following pointer becomes sibling.
	pg, err = t.bp.Fetch(pid)
	if err != nil {
		return nil, 0, err
	}
	before := t.snap(pg)
	i := t.childIndex(pg, key)
	if i == t.nkeys(pg) {
		t.insertAt(pg, i, promoted, uint64(child))
		t.setRightmost(pg, newChild)
	} else {
		t.insertAt(pg, i, promoted, uint64(child))
		binary.LittleEndian.PutUint64(t.entry(pg, i+1)[t.keySize:], uint64(newChild))
	}
	if t.nkeys(pg) <= t.capacity() {
		return nil, 0, t.unpinLogged(pg, before)
	}
	sep, sib, serr := t.splitInternal(pg)
	if uerr := t.unpinLogged(pg, before); uerr != nil && serr == nil {
		serr = uerr
	}
	return sep, sib, serr
}

// splitLeaf moves the upper half of an over-full leaf into a new right
// sibling and returns the separator (first key of the sibling).
func (t *Tree) splitLeaf(pg *storage.Page) ([]byte, storage.PageID, error) {
	n := t.nkeys(pg)
	mid := n / 2
	sib, err := t.bp.NewPage()
	if err != nil {
		return nil, 0, err
	}
	sibBefore := t.snap(sib)
	t.initNode(sib, true)
	es := t.entrySize()
	copy(sib.Bytes()[entriesStart:], pg.Bytes()[entriesStart+mid*es:entriesStart+n*es])
	t.setNKeys(sib, n-mid)
	t.setNKeys(pg, mid)
	sib.SetNextPage(pg.NextPage())
	pg.SetNextPage(sib.ID)
	sep := make([]byte, t.keySize)
	copy(sep, t.key(sib, 0))
	t.leaves.Add(1)
	if err := t.unpinLogged(sib, sibBefore); err != nil {
		return nil, 0, err
	}
	return sep, sib.ID, nil
}

// splitInternal splits an over-full internal node; the middle key is
// promoted (not kept in either half).
func (t *Tree) splitInternal(pg *storage.Page) ([]byte, storage.PageID, error) {
	n := t.nkeys(pg)
	mid := n / 2
	sep := make([]byte, t.keySize)
	copy(sep, t.key(pg, mid))
	midChild := storage.PageID(t.value(pg, mid))

	sib, err := t.bp.NewPage()
	if err != nil {
		return nil, 0, err
	}
	sibBefore := t.snap(sib)
	t.initNode(sib, false)
	es := t.entrySize()
	copy(sib.Bytes()[entriesStart:], pg.Bytes()[entriesStart+(mid+1)*es:entriesStart+n*es])
	t.setNKeys(sib, n-mid-1)
	t.setRightmost(sib, t.rightmost(pg))
	t.setNKeys(pg, mid)
	t.setRightmost(pg, midChild)
	if err := t.unpinLogged(sib, sibBefore); err != nil {
		return nil, 0, err
	}
	return sep, sib.ID, nil
}

// first locates the leftmost occurrence of key; returns its leaf position.
func (t *Tree) first(key []byte) (pos struct {
	page storage.PageID
	idx  int
}, found bool, err error) {
	pid := t.root
	for {
		pg, ferr := t.bp.Fetch(pid)
		if ferr != nil {
			return pos, false, ferr
		}
		if !t.isLeaf(pg) {
			// Descend left of equal separators to find the first dup.
			i := t.search(pg, key)
			var next storage.PageID
			if i == t.nkeys(pg) {
				next = t.rightmost(pg)
			} else {
				next = storage.PageID(t.value(pg, i))
			}
			if err := t.bp.Unpin(pid, false); err != nil {
				return pos, false, err
			}
			pid = next
			continue
		}
		i := t.search(pg, key)
		if i < t.nkeys(pg) && bytes.Equal(t.key(pg, i), key) {
			pos.page, pos.idx = pid, i
			found = true
		} else if i == t.nkeys(pg) && pg.NextPage() != 0 {
			// Key may start on the right sibling (separator equals key).
			next := pg.NextPage()
			if err := t.bp.Unpin(pid, false); err != nil {
				return pos, false, err
			}
			sib, ferr := t.bp.Fetch(next)
			if ferr != nil {
				return pos, false, ferr
			}
			if t.nkeys(sib) > 0 && bytes.Equal(t.key(sib, 0), key) {
				pos.page, pos.idx = next, 0
				found = true
			}
			err = t.bp.Unpin(next, false)
			return pos, found, err
		}
		err = t.bp.Unpin(pid, false)
		return pos, found, err
	}
}

// Search returns every OID stored under key (at most one for unique
// indexes). The returned slice is empty if the key is absent.
func (t *Tree) Search(key []byte) ([]storage.OID, error) {
	k, err := t.padKey(key)
	if err != nil {
		return nil, err
	}
	var out []storage.OID
	err = t.Range(k, k, func(_ []byte, oid storage.OID) bool {
		out = append(out, oid)
		return true
	})
	return out, err
}

// Range calls fn for every entry with lo <= key <= hi in key order.
// Returning false stops the scan. lo or hi may be nil for open ends.
func (t *Tree) Range(lo, hi []byte, fn func(key []byte, oid storage.OID) bool) error {
	var start []byte
	if lo != nil {
		k, err := t.padKey(lo)
		if err != nil {
			return err
		}
		start = k
	} else {
		start = make([]byte, t.keySize)
	}
	var end []byte
	if hi != nil {
		k, err := t.padKey(hi)
		if err != nil {
			return err
		}
		end = k
	}
	// Descend to the leaf containing start.
	pid := t.root
	for {
		pg, err := t.bp.Fetch(pid)
		if err != nil {
			return err
		}
		if t.isLeaf(pg) {
			if err := t.bp.Unpin(pid, false); err != nil {
				return err
			}
			break
		}
		i := t.search(pg, start)
		var next storage.PageID
		if i == t.nkeys(pg) {
			next = t.rightmost(pg)
		} else {
			next = storage.PageID(t.value(pg, i))
		}
		if err := t.bp.Unpin(pid, false); err != nil {
			return err
		}
		pid = next
	}
	// Scan the leaf chain.
	for pid != 0 {
		pg, err := t.bp.Fetch(pid)
		if err != nil {
			return err
		}
		n := t.nkeys(pg)
		type ent struct {
			key []byte
			oid storage.OID
		}
		var batch []ent
		stop := false
		for i := t.search(pg, start); i < n; i++ {
			k := t.key(pg, i)
			if end != nil && bytes.Compare(k, end) > 0 {
				stop = true
				break
			}
			kc := make([]byte, len(k))
			copy(kc, k)
			batch = append(batch, ent{kc, storage.OID(t.value(pg, i))})
		}
		next := pg.NextPage()
		if err := t.bp.Unpin(pid, false); err != nil {
			return err
		}
		for _, e := range batch {
			if !fn(e.key, e.oid) {
				return nil
			}
		}
		if stop {
			return nil
		}
		pid = next
		start = make([]byte, t.keySize) // from-the-beginning on later leaves
	}
	return nil
}

// Delete removes one (key, oid) pair. Underflowed nodes are not merged
// (lazy deletion, as in many production systems); the Table 9 statistics
// remain upper bounds.
func (t *Tree) Delete(key []byte, oid storage.OID) error {
	k, err := t.padKey(key)
	if err != nil {
		return err
	}
	pos, found, err := t.first(k)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	// Walk the duplicate run for the matching oid.
	pid, idx := pos.page, pos.idx
	for pid != 0 {
		pg, err := t.bp.Fetch(pid)
		if err != nil {
			return err
		}
		n := t.nkeys(pg)
		for i := idx; i < n; i++ {
			if !bytes.Equal(t.key(pg, i), k) {
				t.bp.Unpin(pid, false)
				return ErrNotFound
			}
			if storage.OID(t.value(pg, i)) == oid {
				before := t.snap(pg)
				t.removeAt(pg, i)
				t.entries.Add(-1)
				return t.unpinLogged(pg, before)
			}
		}
		next := pg.NextPage()
		if err := t.bp.Unpin(pid, false); err != nil {
			return err
		}
		pid, idx = next, 0
	}
	return ErrNotFound
}

// --- order-preserving key encodings ---

// EncodeIntKey encodes a signed integer so byte order equals numeric order.
func EncodeIntKey(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v)^(1<<63))
	return b[:]
}

// DecodeIntKey reverses EncodeIntKey.
func DecodeIntKey(b []byte) int64 {
	return int64(binary.BigEndian.Uint64(b) ^ (1 << 63))
}

// EncodeFloatKey encodes a float64 so byte order equals numeric order.
func EncodeFloatKey(v float64) []byte {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], bits)
	return b[:]
}

// EncodeStringKey returns the raw bytes of s (zero-padded by the tree).
func EncodeStringKey(s string) []byte { return []byte(s) }
