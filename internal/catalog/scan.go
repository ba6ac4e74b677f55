package catalog

import (
	"fmt"

	"mood/internal/object"
	"mood/internal/storage"
)

// MorselPages is the canonical page-run length of extent scans: morsels
// carry at most this many consecutive chain-order pages of one shard's
// part, and the serial ExtentCursor visits parts in the same
// MorselPages-page round-robin rotation. Using one constant in both places
// is what makes the serial row order equal to the Seq-merged parallel row
// order at any fixed shard count.
const MorselPages = 4

// ExtentCursor is a pull-based scan over a class extent (optionally the
// whole IS-A closure, honoring the FROM clause's minus operator). Unlike
// ScanExtent/ScanClosure, which push every object through a callback, the
// cursor reads extent pages one at a time as the consumer asks for rows — a
// consumer that stops early stops paying for page reads, which is what makes
// the streaming executor's early termination observable on the simulated
// disk.
//
// On a sharded store the cursor rotates across the extent's parts in
// MorselPages-page runs (part 0 pages 0..3, part 1 pages 0..3, …, part 0
// pages 4..7, …), chasing each part's page chain lazily; on a single store
// this degenerates to plain chain order.
type ExtentCursor struct {
	cat     *Catalog
	classes []string // extents still to visit, in closure order
	ci      int
	opened  bool
	done    bool
	closed  bool
	filter  ScanFilter
	scratch pageScanScratch

	// Per-class rotation state: the extent being scanned, each part's next
	// chain page (0 = exhausted), the part currently being read and the
	// pages left in its run.
	ext      *storage.Extent
	partPids []storage.PageID
	live     int // parts not yet exhausted
	part     int
	runLeft  int
	buf      []scanned
	bi       int
}

type scanned struct {
	oid storage.OID
	val object.Value
}

// ScanFilter is a predicate pushed into an extent scan's page loop. The
// zero ScanFilter keeps every object.
type ScanFilter struct {
	// Keep decides whether an object survives. v is read-only, may alias
	// the object cache or a scan buffer, and is valid only during the call.
	Keep func(oid storage.OID, v *object.Value) (bool, error)
	// Attrs, when non-empty, names every top-level attribute Keep reads:
	// the set expr.SelfAttrs reports for a compiled predicate. The scan
	// then decodes on qualify: Keep runs on a cache-miss record decoded
	// only as far as these attributes (object.UnmarshalFields), and only a
	// record that passes is unmarshalled in full. Empty Attrs means Keep
	// may read anything, and every record is unmarshalled before Keep runs.
	Attrs []string
}

// pageScanScratch holds the reusable per-page buffers of a batched extent
// scan. The zero value is ready to use; the slices grow to one page's
// record count and are reused for every subsequent page.
type pageScanScratch struct {
	recs []storage.ScanRecord // zero-copy record batch (aliases the frame)
	oids []storage.OID
	vals []*object.Value // cache-hit pointers; nil marks a cache miss
	raw  []byte          // the cache misses' record bytes, copied out under the store lock
	ends []int           // end offset in raw of each cache miss, in record order
	part object.Value    // the partial tuple Keep checks before a full decode
	obj  object.Value    // the fully decoded object handed to Keep and emit

	// cls is the class of the last record decoded: its name table serves
	// every later record of the same class without a catalog lookup.
	cls *Class

	// decoded counts the records this scratch has unmarshalled in full.
	decoded int64
}

// scanPageBatched reads one page of one part of the extent and emits its
// surviving objects. Inside the store lock it probes the object cache for
// the whole page in one batched lookup (one shard lock per page, not per
// object) and copies out the record bytes of the misses; nothing is decoded
// and no filter runs under the lock, so a filter that resolves references
// may safely re-enter the store. After the lock is released each object is
// checked in record order: a cache hit against the cached value, a miss
// against its partial tuple when f.Attrs is set (decode on qualify) or else
// against its full decode; only misses that pass, or all of them without
// Attrs, are unmarshalled. Cache hits save only the decode, never the page
// read — read patterns are identical with and without the cache — and the
// promotion-free batch probe keeps one scan pass from churning the
// replacement lists. The object pointers handed to f.Keep and emit are
// read-only and valid only until the next call with the same scratch.
// Returns the next page in the part's chain (0 at the end).
func (c *Catalog) scanPageBatched(e *storage.Extent, part int, pid storage.PageID, readahead bool, sc *pageScanScratch,
	f ScanFilter, emit func(oid storage.OID, v *object.Value)) (storage.PageID, error) {
	sc.oids, sc.vals, sc.raw, sc.ends = sc.oids[:0], sc.vals[:0], sc.raw[:0], sc.ends[:0]
	next, recs, err := c.store.ScanPartRecs(e, part, pid, readahead, sc.recs, func(batch []storage.ScanRecord) error {
		n0 := len(sc.oids)
		for i := range batch {
			sc.oids = append(sc.oids, batch[i].OID)
			sc.vals = append(sc.vals, nil)
		}
		if c.ocache != nil {
			c.ocache.GetScanBatch(sc.oids[n0:], sc.vals[n0:])
		}
		for i := range batch {
			if sc.vals[n0+i] == nil {
				sc.raw = append(sc.raw, batch[i].Data...)
				sc.ends = append(sc.ends, len(sc.raw))
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	sc.recs = recs
	start, mi := 0, 0
	for i, v := range sc.vals {
		oid := sc.oids[i]
		checked := false // f.Keep already passed this object
		if v == nil {
			rec := sc.raw[start:sc.ends[mi]]
			start = sc.ends[mi]
			mi++
			id, body, err := objectBody(rec)
			if err != nil {
				return 0, err
			}
			if f.Keep != nil && len(f.Attrs) > 0 {
				if err := object.UnmarshalFields(body, f.Attrs, &sc.part); err != nil {
					return 0, err
				}
				keep, err := f.Keep(oid, &sc.part)
				if err != nil {
					return 0, err
				}
				if !keep {
					continue
				}
				checked = true
			}
			if sc.obj, err = object.UnmarshalNamed(body, c.scanNames(sc, id)); err != nil {
				return 0, err
			}
			sc.decoded++
			v = &sc.obj
		}
		if f.Keep != nil && !checked {
			keep, err := f.Keep(oid, v)
			if err != nil {
				return 0, err
			}
			if !keep {
				continue
			}
		}
		emit(oid, v)
	}
	return next, nil
}

// scanNames is the name table of class id for a scan's decodes, nil when
// the id names no class (the record then decodes as it would without one).
func (c *Catalog) scanNames(sc *pageScanScratch, id int) []string {
	if sc.cls == nil || sc.cls.ID != id {
		cl, err := c.classByID(id)
		if err != nil {
			return nil
		}
		sc.cls = cl
	}
	return c.nameTable(sc.cls)
}

// ErrCursorClosed is returned by Next on a cursor whose Close has run.
var ErrCursorClosed = fmt.Errorf("catalog: extent cursor is closed")

// extentClasses resolves the class list a scan of class covers: just the
// class itself, or its IS-A closure minus the excluded subtrees. Every
// extent is validated up front so iteration never reports a schema error
// halfway through a drained pipeline.
func (c *Catalog) extentClasses(class string, minus []string, closure bool) ([]string, error) {
	var classes []string
	if closure {
		all, err := c.Closure(class)
		if err != nil {
			return nil, err
		}
		excluded := map[string]bool{}
		for _, m := range minus {
			sub, err := c.Closure(m)
			if err != nil {
				return nil, err
			}
			for _, s := range sub {
				excluded[s] = true
			}
		}
		for _, name := range all {
			if !excluded[name] {
				classes = append(classes, name)
			}
		}
	} else {
		classes = []string{class}
	}
	for _, name := range classes {
		cl, err := c.Class(name)
		if err != nil {
			return nil, err
		}
		if cl.extent == nil {
			return nil, fmt.Errorf("catalog: %s has no extent", name)
		}
	}
	return classes, nil
}

// OpenExtentScan opens a cursor over the direct extent of class (closure
// false) or over its IS-A closure minus the excluded subtrees (closure
// true), mirroring ScanExtent and ScanClosure respectively.
func (c *Catalog) OpenExtentScan(class string, minus []string, closure bool) (*ExtentCursor, error) {
	classes, err := c.extentClasses(class, minus, closure)
	if err != nil {
		return nil, err
	}
	return &ExtentCursor{cat: c, classes: classes}, nil
}

// ScannedObject is one decoded object surfaced by a morsel read: the
// object's OID and its decoded value.
type ScannedObject struct {
	OID storage.OID
	Val object.Value
}

// ExtentMorsel is one unit of parallel scan work: a run of consecutive
// chain-order pages of one part (one shard) of a class extent. Morsels of a
// scan are numbered in the exact order a serial ExtentCursor would visit
// their pages, so a dispatcher that merges worker output by Seq reproduces
// the serial row order byte for byte.
type ExtentMorsel struct {
	Class string
	Seq   int
	// Part is the shard whose page chain the morsel's pages belong to.
	Part  int
	Pages []storage.PageID
	ext   *storage.Extent
}

// ExtentMorsels splits the extent scan of class (with the same minus/closure
// semantics as OpenExtentScan) into page-range morsels of at most pagesPer
// pages each. Page order within a part comes from the shard's chain-order
// page list; morsels rotate round-robin across the extent's parts (run 0 of
// every part, then run 1, …), so exchange workers get cross-shard
// parallelism for free and the Seq order matches the serial cursor's
// rotation when pagesPer == MorselPages.
func (c *Catalog) ExtentMorsels(class string, minus []string, closure bool, pagesPer int) ([]ExtentMorsel, error) {
	if pagesPer < 1 {
		pagesPer = 1
	}
	classes, err := c.extentClasses(class, minus, closure)
	if err != nil {
		return nil, err
	}
	var morsels []ExtentMorsel
	for _, name := range classes {
		cl, err := c.Class(name)
		if err != nil {
			return nil, err
		}
		parts := cl.extent.Parts()
		perPart := make([][]storage.PageID, parts)
		for p := 0; p < parts; p++ {
			pages, err := c.store.PartPageList(cl.extent, p)
			if err != nil {
				return nil, err
			}
			perPart[p] = pages
		}
		for run := 0; ; run++ {
			emitted := false
			for p := 0; p < parts; p++ {
				off := run * pagesPer
				if off >= len(perPart[p]) {
					continue
				}
				end := off + pagesPer
				if end > len(perPart[p]) {
					end = len(perPart[p])
				}
				morsels = append(morsels, ExtentMorsel{
					Class: name,
					Seq:   len(morsels),
					Part:  p,
					Pages: perPart[p][off:end],
					ext:   cl.extent,
				})
				emitted = true
			}
			if !emitted {
				break
			}
		}
	}
	return morsels, nil
}

// PreloadMorsel pins, into p, the morsel's pages in chain order: the pages
// ReadMorsel reads (see storage.Preload).
func (c *Catalog) PreloadMorsel(p *storage.Preload, m *ExtentMorsel) error {
	return c.store.PreloadPart(p, m.Part, m.Pages)
}

// ReadMorsel reads and decodes the objects of one morsel. It is safe to
// call from concurrent worker goroutines: page reads go through the owning
// shard's store lock and buffer pool.
func (c *Catalog) ReadMorsel(m *ExtentMorsel) ([]ScannedObject, error) {
	objs, _, err := c.ReadMorselFiltered(m, ScanFilter{})
	return objs, err
}

// ReadMorselFiltered is ReadMorsel with a predicate pushed into the
// page-decode loop, mirroring ExtentCursor.SetFilter: rejected objects are
// never copied into the result, nor unmarshalled when f.Attrs names what
// the filter reads. decoded is the number of records unmarshalled. The
// zero filter keeps everything. Page reads are identical either way.
func (c *Catalog) ReadMorselFiltered(m *ExtentMorsel, f ScanFilter) (objs []ScannedObject, decoded int64, err error) {
	var out []ScannedObject
	// Readahead: request the whole morsel's page set up front, so loading
	// page i+1 overlaps decoding page i (no-op without a prefetcher).
	if len(m.Pages) > 1 {
		c.store.PrefetchPart(m.Part, m.Pages[1:]...)
	}
	var sc pageScanScratch
	for _, pid := range m.Pages {
		// Batched zero-copy page scan, as in ExtentCursor.fill; readahead is
		// off because the whole morsel was requested above. Cache inserts are
		// skipped on purpose: they would need a BeginFetch token predating
		// the page read.
		_, err := c.scanPageBatched(m.ext, m.Part, pid, false, &sc, f,
			func(oid storage.OID, v *object.Value) {
				out = append(out, ScannedObject{OID: oid, Val: *v})
			})
		if err != nil {
			return nil, sc.decoded, err
		}
	}
	return out, sc.decoded, nil
}

// Next returns the next object of the scan; ok is false when the scan is
// exhausted. Calling Next on a closed cursor is an error (exhaustion and
// abandonment are different states, and the morsel dispatcher relies on the
// distinction to catch use-after-close bugs).
func (it *ExtentCursor) Next() (storage.OID, object.Value, bool, error) {
	for {
		if it.closed {
			return storage.NilOID, object.Null, false, ErrCursorClosed
		}
		if it.done {
			return storage.NilOID, object.Null, false, nil
		}
		if it.bi < len(it.buf) {
			h := it.buf[it.bi]
			it.bi++
			return h.oid, h.val, true, nil
		}
		if err := it.fill(); err != nil {
			it.done = true
			return storage.NilOID, object.Null, false, err
		}
	}
}

// SetFilter pushes a predicate into the page-decode loop: it is evaluated
// against each scanned object in place, and rejected objects are never
// buffered or surfaced by Next/NextRef — nor unmarshalled, when f.Attrs
// names what the filter reads (see ScanFilter). Page reads are unchanged:
// the filter only decides what survives the page, which is how the fused
// scan-selection avoids a copy per rejected object. An error from the
// filter aborts the scan.
func (it *ExtentCursor) SetFilter(f ScanFilter) {
	it.filter = f
}

// Decoded returns the number of records the cursor has unmarshalled so
// far; Close keeps it.
func (it *ExtentCursor) Decoded() int64 { return it.scratch.decoded }

// NextRef is Next without the 120-byte value copy: the returned pointer
// aliases the cursor's internal page buffer and is valid only until the
// next Next/NextRef call (a refill reuses the buffer's backing array). The
// vectorized scan operators use it to evaluate predicates in place,
// copying the value out only for rows that survive.
func (it *ExtentCursor) NextRef() (storage.OID, *object.Value, bool, error) {
	for {
		if it.closed {
			return storage.NilOID, nil, false, ErrCursorClosed
		}
		if it.done {
			return storage.NilOID, nil, false, nil
		}
		if it.bi < len(it.buf) {
			h := &it.buf[it.bi]
			it.bi++
			return h.oid, &h.val, true, nil
		}
		if err := it.fill(); err != nil {
			it.done = true
			return storage.NilOID, nil, false, err
		}
	}
}

// nextPage advances the rotation to the next page to read, returning false
// when the current class's extent is exhausted. Parts are visited cyclically
// in MorselPages-page runs, skipping exhausted parts — the exact (part, run)
// sequence ExtentMorsels emits.
func (it *ExtentCursor) nextPage() (part int, pid storage.PageID, ok bool) {
	if it.live == 0 {
		return 0, 0, false
	}
	if it.runLeft > 0 && it.partPids[it.part] != 0 {
		it.runLeft--
		return it.part, it.partPids[it.part], true
	}
	// Run finished (or the part ran dry): rotate to the next live part.
	start := it.part
	for i := 1; i <= len(it.partPids); i++ {
		p := (start + i) % len(it.partPids)
		if it.partPids[p] != 0 {
			it.part = p
			it.runLeft = MorselPages - 1
			return p, it.partPids[p], true
		}
	}
	return 0, 0, false
}

// fill buffers the next non-empty page's objects, advancing through the
// class list and each extent's part rotation; it sets done when every
// extent is exhausted. The buffer's backing array is reused across fills —
// Next hands out value copies, so nothing observes the overwrite.
func (it *ExtentCursor) fill() error {
	it.buf, it.bi = it.buf[:0], 0
	for {
		if it.ext == nil {
			// Advance to the next class's extent.
			if it.opened {
				it.ci++
			}
			if it.ci >= len(it.classes) {
				it.done = true
				return nil
			}
			cl, err := it.cat.Class(it.classes[it.ci])
			if err != nil {
				return err
			}
			it.ext = cl.extent
			parts := cl.extent.Parts()
			it.partPids = make([]storage.PageID, parts)
			it.live = 0
			for p := 0; p < parts; p++ {
				pid := it.cat.store.PartFirstPage(cl.extent, p)
				it.partPids[p] = pid
				if pid != 0 {
					it.live++
				}
			}
			// Start the rotation so nextPage's first advance lands on the
			// first live part in part order.
			it.part = parts - 1
			it.runLeft = 0
			it.opened = true
		}
		part, pid, ok := it.nextPage()
		if !ok { // extent exhausted
			it.ext = nil
			continue
		}
		// Batched page scan: one cache probe and one copy of the misses'
		// bytes per page, decoding and the filter running outside the store
		// lock, and the next page's load requested before decoding starts
		// (a no-op without a prefetcher). A rejected object is never copied
		// — only survivors land in the buffer.
		next, err := it.cat.scanPageBatched(it.ext, part, pid, true, &it.scratch, it.filter,
			func(oid storage.OID, v *object.Value) {
				it.buf = append(it.buf, scanned{oid: oid, val: *v})
			})
		if err != nil {
			return err
		}
		it.partPids[part] = next
		if next == 0 {
			it.live--
		}
		if len(it.buf) > 0 {
			return nil
		}
	}
}

// Close releases the cursor. Closing early is how a pipeline abandons the
// remaining pages without reading them. Close is idempotent.
func (it *ExtentCursor) Close() {
	it.done, it.closed = true, true
	it.buf, it.ext, it.partPids = nil, nil, nil
}
