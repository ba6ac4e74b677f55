package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Record tags: the first byte of every stored record says how the remaining
// bytes are to be interpreted.
const (
	recPlain    byte = 0 // payload follows inline
	recOverflow byte = 1 // u32 total length + u32 first overflow page follow
)

const overflowHeadSize = 1 + 4 + 4

// ObjectStore provides OID-addressed record storage over files: the
// storage-management service ESM supplies to MOOD. Records larger than a
// page spill into overflow page chains transparently, so MOOD objects (and
// MoodView's multimedia objects) are not limited by the block size.
//
// Readers (Get, ScanPage, PageList) take a shared lock, so parallel morsel
// workers scan and fetch concurrently; mutations take the exclusive lock.
type ObjectStore struct {
	bp *BufferPool
	fm *FileManager
	mu sync.RWMutex
	// inv and pf are installed once at open time (SetInvalidator /
	// SetPrefetcher), before the store is shared across goroutines; after
	// that they are only read.
	inv CacheInvalidator
	pf  *Prefetcher
	// shard/tag identify this store inside a ShardedStore: tag is ORed into
	// every OID the store mints, so routing a read back to the minting shard
	// is a pure function of the identifier. A standalone store is shard 0
	// with a zero tag — OIDs are bit-identical to the unsharded layout.
	shard int
	tag   OID
	// fwd maps a migrated record's original OID to its current physical
	// address (see migrate.go). Warm readers jump straight to the
	// destination; after a reopen the map is re-learned lazily from the
	// on-disk forward stubs.
	fwd sync.Map
	// batchObs, when set, receives one (file, refs, distinct pages)
	// observation per file-run of a FetchBatch call — the clustering
	// tracer's page co-residency feed. Installed once at open time.
	batchObs BatchObserver
}

// NewObjectStore creates a store over the given pool and file manager.
func NewObjectStore(bp *BufferPool, fm *FileManager) *ObjectStore {
	return &ObjectStore{bp: bp, fm: fm}
}

// NewShardObjectStore creates a store that mints OIDs tagged for the given
// shard id — the per-shard building block of a ShardedStore.
func NewShardObjectStore(bp *BufferPool, fm *FileManager, shard int) *ObjectStore {
	if shard < 0 || shard >= MaxShards {
		panic(fmt.Sprintf("storage: shard %d out of range [0,%d)", shard, MaxShards))
	}
	return &ObjectStore{bp: bp, fm: fm, shard: shard, tag: ShardTag(shard)}
}

// Files exposes the underlying file manager.
func (s *ObjectStore) Files() *FileManager { return s.fm }

// Pool exposes the underlying buffer pool.
func (s *ObjectStore) Pool() *BufferPool { return s.bp }

// Insert stores data as a new record of the file and returns its OID.
func (s *ObjectStore) Insert(f *File, data []byte) (OID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	maxInline := MaxRecordSize(s.bp.Disk().PageSize()) - 1
	var rec []byte
	if len(data) <= maxInline {
		rec = make([]byte, 1+len(data))
		rec[0] = recPlain
		copy(rec[1:], data)
	} else {
		first, err := s.writeOverflow(data)
		if err != nil {
			return NilOID, err
		}
		rec = make([]byte, overflowHeadSize)
		rec[0] = recOverflow
		binary.LittleEndian.PutUint32(rec[1:], uint32(len(data)))
		binary.LittleEndian.PutUint32(rec[5:], uint32(first))
	}

	// Try the last data page first, then grow the file.
	if f.lastPage != 0 {
		pg, err := s.bp.Fetch(f.lastPage)
		if err != nil {
			return NilOID, err
		}
		slot, ierr := pg.Insert(rec)
		if uerr := s.bp.Unpin(f.lastPage, ierr == nil); uerr != nil {
			return NilOID, uerr
		}
		if ierr == nil {
			f.numRecs.Add(1)
			if err := s.fm.syncDir(f); err != nil {
				return NilOID, err
			}
			return MakeOID(f.ID, f.lastPage, slot) | s.tag, nil
		}
		if ierr != ErrPageFull {
			return NilOID, ierr
		}
	}
	pg, err := s.appendPage(f)
	if err != nil {
		return NilOID, err
	}
	slot, ierr := pg.Insert(rec)
	if uerr := s.bp.Unpin(pg.ID, ierr == nil); uerr != nil {
		return NilOID, uerr
	}
	if ierr != nil {
		return NilOID, ierr
	}
	f.numRecs.Add(1)
	if err := s.fm.syncDir(f); err != nil {
		return NilOID, err
	}
	return MakeOID(f.ID, pg.ID, slot) | s.tag, nil
}

// Get returns a copy of the record addressed by oid. Safe for concurrent
// callers: it holds the store's read lock, so only mutations are excluded.
func (s *ObjectStore) Get(oid OID) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getLocked(oid)
}

func (s *ObjectStore) getLocked(oid OID) ([]byte, error) {
	cur := s.forwardOf(oid)
	for hops := 0; hops < maxForwardHops; hops++ {
		pg, err := s.bp.Fetch(cur.Page())
		if err != nil {
			return nil, err
		}
		rec, gerr := pg.Get(cur.Slot())
		if gerr != nil {
			s.bp.Unpin(cur.Page(), false)
			return nil, gerr
		}
		if rec[0] == recForward {
			dst := forwardDst(rec)
			if err := s.bp.Unpin(cur.Page(), false); err != nil {
				return nil, err
			}
			s.learnForward(oid, dst)
			cur = dst
			continue
		}
		if rec[0] == recRelocated {
			rec = rec[relocHeadSize:]
		}
		switch rec[0] {
		case recPlain:
			out := make([]byte, len(rec)-1)
			copy(out, rec[1:])
			if err := s.bp.Unpin(cur.Page(), false); err != nil {
				return nil, err
			}
			return out, nil
		case recOverflow:
			total := binary.LittleEndian.Uint32(rec[1:])
			first := PageID(binary.LittleEndian.Uint32(rec[5:]))
			if err := s.bp.Unpin(cur.Page(), false); err != nil {
				return nil, err
			}
			return s.readOverflow(first, int(total))
		default:
			s.bp.Unpin(cur.Page(), false)
			return nil, fmt.Errorf("storage: corrupt record tag %d at %s", rec[0], cur)
		}
	}
	return nil, fmt.Errorf("storage: forwarding chain too deep at %s", oid)
}

// Update replaces the record addressed by oid with data; the OID is stable.
// A migrated record is updated in place at its current physical home, with
// the relocation frame (and therefore its scan identity) preserved.
func (s *ObjectStore) Update(oid OID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Invalidate before releasing the exclusive lock (deferred calls run
	// LIFO): readers are excluded for the whole mutation, so any cached
	// value for this OID is dropped before they can look again, and the
	// epoch bump kills in-flight fetches that read the old bytes.
	defer s.invalidate(oid)
	cur, err := s.locateLocked(oid)
	if err != nil {
		return err
	}
	pg, err := s.bp.Fetch(cur.Page())
	if err != nil {
		return err
	}
	old, gerr := pg.Get(cur.Slot())
	if gerr != nil {
		s.bp.Unpin(cur.Page(), false)
		return gerr
	}
	framed := old[0] == recRelocated
	oldInner := old
	if framed {
		oldInner = old[relocHeadSize:]
	}
	var oldOverflow PageID
	if oldInner[0] == recOverflow {
		oldOverflow = PageID(binary.LittleEndian.Uint32(oldInner[5:]))
	}
	// wrap re-frames an inner record for a relocated slot so scans keep
	// surfacing it under its original OID.
	wrap := func(rec []byte) []byte {
		if !framed {
			return rec
		}
		out := make([]byte, relocHeadSize+len(rec))
		out[0] = recRelocated
		binary.LittleEndian.PutUint64(out[1:], uint64(oid))
		copy(out[relocHeadSize:], rec)
		return out
	}

	maxInline := MaxRecordSize(s.bp.Disk().PageSize()) - 1
	if framed {
		maxInline -= relocHeadSize
	}
	var rec []byte
	var newOverflow PageID
	if len(data) <= maxInline {
		rec = make([]byte, 1+len(data))
		rec[0] = recPlain
		copy(rec[1:], data)
	} else {
		first, oerr := s.writeOverflow(data)
		if oerr != nil {
			s.bp.Unpin(cur.Page(), false)
			return oerr
		}
		newOverflow = first
		rec = make([]byte, overflowHeadSize)
		rec[0] = recOverflow
		binary.LittleEndian.PutUint32(rec[1:], uint32(len(data)))
		binary.LittleEndian.PutUint32(rec[5:], uint32(first))
	}

	uerr := pg.Update(cur.Slot(), wrap(rec))
	if uerr == ErrPageFull && rec[0] == recPlain {
		// Spill to overflow: the 9-byte head replaces the old record.
		first, oerr := s.writeOverflow(data)
		if oerr == nil {
			newOverflow = first
			head := make([]byte, overflowHeadSize)
			head[0] = recOverflow
			binary.LittleEndian.PutUint32(head[1:], uint32(len(data)))
			binary.LittleEndian.PutUint32(head[5:], uint32(first))
			uerr = pg.Update(cur.Slot(), wrap(head))
		} else {
			uerr = oerr
		}
	}
	if err := s.bp.Unpin(cur.Page(), uerr == nil); err != nil {
		return err
	}
	if uerr != nil {
		if newOverflow != 0 {
			s.freeOverflow(newOverflow)
		}
		return uerr
	}
	if oldOverflow != 0 {
		return s.freeOverflow(oldOverflow)
	}
	return nil
}

// Delete removes the record addressed by oid. Deleting a migrated record
// removes both the relocated copy and the forward stub at the original
// slot, so neither dangles (a later slot reuse at either position mints a
// fresh identity, never resurrects the old one).
func (s *ObjectStore) Delete(oid OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.invalidate(oid)
	cur, err := s.locateLocked(oid)
	if err != nil {
		return err
	}
	pg, err := s.bp.Fetch(cur.Page())
	if err != nil {
		return err
	}
	rec, gerr := pg.Get(cur.Slot())
	if gerr != nil {
		s.bp.Unpin(cur.Page(), false)
		return gerr
	}
	inner := rec
	if rec[0] == recRelocated {
		inner = rec[relocHeadSize:]
	}
	var overflow PageID
	if inner[0] == recOverflow {
		overflow = PageID(binary.LittleEndian.Uint32(inner[5:]))
	}
	derr := pg.Delete(cur.Slot())
	if err := s.bp.Unpin(cur.Page(), derr == nil); err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	if cur != oid {
		// Tombstone the forward stub at the record's original slot too.
		spg, err := s.bp.Fetch(oid.Page())
		if err != nil {
			return err
		}
		serr := spg.Delete(oid.Slot())
		if err := s.bp.Unpin(oid.Page(), serr == nil); err != nil {
			return err
		}
		if serr != nil {
			return serr
		}
		s.fwd.Delete(oid)
	}
	if overflow != 0 {
		if err := s.freeOverflow(overflow); err != nil {
			return err
		}
	}
	f, ferr := s.fm.FileByID(oid.File())
	if ferr == nil && f.numRecs.Load() > 0 {
		f.numRecs.Add(^uint32(0))
		return s.fm.syncDir(f)
	}
	return nil
}

// ScanRecord is one record surfaced by a page-at-a-time scan: the record's
// OID and a copy of its payload.
type ScanRecord struct {
	OID  OID
	Data []byte
}

// FirstScanPage returns the page a scan of the file starts at (0 for an
// empty file).
func (s *ObjectStore) FirstScanPage(f *File) PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return f.firstPage
}

// PageList returns the IDs of the file's data pages in chain order. The
// list is served from an in-memory cache maintained as the file grows; if
// the file was re-opened from disk (cache cold) the chain is walked once —
// at normal page-read cost — and cached. The parallel executor partitions
// this list into page-range morsels so independent workers can read
// disjoint pages concurrently instead of chasing NextPage links serially.
func (s *ObjectStore) PageList(f *File) ([]PageID, error) {
	s.mu.RLock()
	if len(f.pages) == f.NumPages() {
		out := append([]PageID(nil), f.pages...)
		s.mu.RUnlock()
		return out, nil
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(f.pages) == f.NumPages() {
		return append([]PageID(nil), f.pages...), nil
	}
	pages := make([]PageID, 0, f.NumPages())
	for pid := f.firstPage; pid != 0; {
		pg, err := s.bp.Fetch(pid)
		if err != nil {
			return nil, err
		}
		next := pg.NextPage()
		if err := s.bp.Unpin(pid, false); err != nil {
			return nil, err
		}
		pages = append(pages, pid)
		pid = next
	}
	f.pages = pages
	return append([]PageID(nil), pages...), nil
}

// ScanPage reads the records of one page of the file and the ID of the next
// page in the chain (0 at the end). It is the pull-based primitive both the
// callback Scan and the streaming extent cursors are built on: a caller that
// stops asking for pages stops paying for page reads.
func (s *ObjectStore) ScanPage(f *File, pid PageID) ([]ScanRecord, PageID, error) {
	var hits []ScanRecord
	var overflowHeads []ScanRecord

	s.mu.RLock()
	defer s.mu.RUnlock()
	pg, err := s.bp.Fetch(pid)
	if err != nil {
		return nil, 0, err
	}
	pg.Slots(func(slot SlotID, rec []byte) bool {
		oid := MakeOID(f.ID, pid, slot) | s.tag
		switch rec[0] {
		case recForward:
			// Migrated away: the record surfaces at its destination page,
			// under its original OID, via the relocation frame there.
			s.learnForward(oid, forwardDst(rec))
			return true
		case recRelocated:
			oid = relocOrig(rec)
			rec = rec[relocHeadSize:]
		}
		switch rec[0] {
		case recPlain:
			cp := make([]byte, len(rec)-1)
			copy(cp, rec[1:])
			hits = append(hits, ScanRecord{oid, cp})
		case recOverflow:
			cp := make([]byte, len(rec))
			copy(cp, rec)
			overflowHeads = append(overflowHeads, ScanRecord{oid, cp})
		}
		return true
	})
	next := pg.NextPage()
	if err := s.bp.Unpin(pid, false); err != nil {
		return nil, 0, err
	}
	// Reassemble large records before releasing the lock.
	for _, h := range overflowHeads {
		total := binary.LittleEndian.Uint32(h.Data[1:])
		first := PageID(binary.LittleEndian.Uint32(h.Data[5:]))
		data, err := s.readOverflow(first, int(total))
		if err != nil {
			return nil, 0, err
		}
		hits = append(hits, ScanRecord{h.OID, data})
	}
	return hits, next, nil
}

// ScanPageRecs is ScanPage without the per-record copy, batched: fn
// receives a whole page's plain records at once, their Data slices aliasing
// the pinned page frame, so a consumer pays no allocation per record AND
// can amortize per-page work (a batched object-cache probe, one shard lock
// per page instead of one per record) across the batch. fn must consume the
// bytes before returning and must not call back into the store — it runs
// under the store's read lock. fn is called at most twice: once with the
// plain records in slot order (page pinned), then once with the reassembled
// overflow records (heap copies by construction), preserving ScanPage's
// record order. scratch is the caller's reusable backing array for the
// plain-record batch; the possibly-grown slice is returned for the next
// call. With readahead true the chain's next page is requested from the
// prefetcher before the records are delivered, so loading page i+1 overlaps
// fn's work on page i.
func (s *ObjectStore) ScanPageRecs(f *File, pid PageID, readahead bool, scratch []ScanRecord, fn func(recs []ScanRecord) error) (PageID, []ScanRecord, error) {
	scratch = scratch[:0]
	var overflowHeads []ScanRecord

	s.mu.RLock()
	defer s.mu.RUnlock()
	pg, err := s.bp.Fetch(pid)
	if err != nil {
		return 0, scratch, err
	}
	next := pg.NextPage()
	if readahead && next != 0 {
		s.Prefetch(next)
	}
	pg.Slots(func(slot SlotID, rec []byte) bool {
		oid := MakeOID(f.ID, pid, slot) | s.tag
		switch rec[0] {
		case recForward:
			s.learnForward(oid, forwardDst(rec))
			return true
		case recRelocated:
			oid = relocOrig(rec)
			rec = rec[relocHeadSize:]
		}
		switch rec[0] {
		case recPlain:
			scratch = append(scratch, ScanRecord{oid, rec[1:]})
		case recOverflow:
			cp := make([]byte, len(rec))
			copy(cp, rec)
			overflowHeads = append(overflowHeads, ScanRecord{oid, cp})
		}
		return true
	})
	var fnErr error
	if len(scratch) > 0 {
		fnErr = fn(scratch)
	}
	if err := s.bp.Unpin(pid, false); err != nil {
		return 0, scratch, err
	}
	if fnErr != nil {
		return 0, scratch, fnErr
	}
	if len(overflowHeads) > 0 {
		for i, h := range overflowHeads {
			total := binary.LittleEndian.Uint32(h.Data[1:])
			first := PageID(binary.LittleEndian.Uint32(h.Data[5:]))
			data, err := s.readOverflow(first, int(total))
			if err != nil {
				return 0, scratch, err
			}
			overflowHeads[i] = ScanRecord{h.OID, data}
		}
		if err := fn(overflowHeads); err != nil {
			return 0, scratch, err
		}
	}
	return next, scratch, nil
}

// Scan iterates the records of the file in page-chain order. fn receives
// each record's OID and a copy of its payload; returning false stops the
// scan early. The store's lock is NOT held while fn runs, so callbacks may
// freely Get/Insert/Update other records; structural changes to the pages
// being scanned made from inside the callback may or may not be visible to
// the remainder of the scan.
func (s *ObjectStore) Scan(f *File, fn func(OID, []byte) bool) error {
	pid := s.FirstScanPage(f)
	for pid != 0 {
		hits, next, err := s.ScanPage(f, pid)
		if err != nil {
			return err
		}
		for _, h := range hits {
			if !fn(h.OID, h.Data) {
				return nil
			}
		}
		pid = next
	}
	return nil
}

// appendPage grows the file by one page, returned pinned.
func (s *ObjectStore) appendPage(f *File) (*Page, error) {
	pg, err := s.bp.NewPage()
	if err != nil {
		return nil, err
	}
	pg.InitHeap(PageKindHeap)
	if f.lastPage != 0 {
		prev, err := s.bp.Fetch(f.lastPage)
		if err != nil {
			s.bp.Unpin(pg.ID, true)
			return nil, err
		}
		prev.SetNextPage(pg.ID)
		if err := s.bp.Unpin(f.lastPage, true); err != nil {
			s.bp.Unpin(pg.ID, true)
			return nil, err
		}
	} else {
		f.firstPage = pg.ID
	}
	f.lastPage = pg.ID
	// Keep the page-list cache current while it is complete; a cache that
	// went cold (file re-opened from disk) stays cold until PageList walks
	// the chain once.
	if len(f.pages) == f.NumPages() {
		f.pages = append(f.pages, pg.ID)
	}
	f.numPages.Add(1)
	if err := s.fm.syncDir(f); err != nil {
		s.bp.Unpin(pg.ID, true)
		return nil, err
	}
	return pg, nil
}

// writeOverflow stores data across a fresh overflow chain and returns the
// first page of the chain.
func (s *ObjectStore) writeOverflow(data []byte) (PageID, error) {
	chunk := s.bp.Disk().PageSize() - pageHeaderSize - 2
	var first, prev PageID
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		pg, err := s.bp.NewPage()
		if err != nil {
			return 0, err
		}
		buf := pg.Bytes()
		for i := range buf {
			buf[i] = 0
		}
		pg.setU16(offPageKind, PageKindOverflow)
		binary.LittleEndian.PutUint16(buf[pageHeaderSize:], uint16(end-off))
		copy(buf[pageHeaderSize+2:], data[off:end])
		if first == 0 {
			first = pg.ID
		}
		if prev != 0 {
			pp, err := s.bp.Fetch(prev)
			if err != nil {
				s.bp.Unpin(pg.ID, true)
				return 0, err
			}
			pp.SetNextPage(pg.ID)
			if err := s.bp.Unpin(prev, true); err != nil {
				s.bp.Unpin(pg.ID, true)
				return 0, err
			}
		}
		prev = pg.ID
		if err := s.bp.Unpin(pg.ID, true); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// readOverflow reassembles a record of the given total length from the chain
// starting at first.
func (s *ObjectStore) readOverflow(first PageID, total int) ([]byte, error) {
	out := make([]byte, 0, total)
	for pid := first; pid != 0; {
		pg, err := s.bp.Fetch(pid)
		if err != nil {
			return nil, err
		}
		buf := pg.Bytes()
		n := int(binary.LittleEndian.Uint16(buf[pageHeaderSize:]))
		out = append(out, buf[pageHeaderSize+2:pageHeaderSize+2+n]...)
		next := pg.NextPage()
		if err := s.bp.Unpin(pid, false); err != nil {
			return nil, err
		}
		pid = next
	}
	if len(out) != total {
		return nil, fmt.Errorf("storage: overflow chain yielded %d bytes, want %d", len(out), total)
	}
	return out, nil
}

// --- Store interface -------------------------------------------------------
//
// An ObjectStore is the one-shard Store: every extent has exactly one part,
// backed by a heap file in this store's file manager. The File-granular
// methods above remain the low-level API (indexes and tests use them); the
// extent methods below are what the catalog programs against.

// Shards reports one shard.
func (s *ObjectStore) Shards() int { return 1 }

// CreateExtent creates the named extent as a single heap file.
func (s *ObjectStore) CreateExtent(name string) (*Extent, error) {
	f, err := s.fm.CreateFile(name)
	if err != nil {
		return nil, err
	}
	return &Extent{Name: name, parts: []*File{f}}, nil
}

// OpenExtent opens an existing extent by directory name.
func (s *ObjectStore) OpenExtent(name string) (*Extent, error) {
	f, err := s.fm.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &Extent{Name: name, parts: []*File{f}}, nil
}

// DropExtent removes the extent's file and data pages.
func (s *ObjectStore) DropExtent(name string) error {
	return s.fm.DropFile(name)
}

// InsertExtent stores data as a new record of the extent.
func (s *ObjectStore) InsertExtent(e *Extent, data []byte) (OID, error) {
	return s.Insert(e.parts[0], data)
}

// ScanExtent iterates the extent's records in page-chain order.
func (s *ObjectStore) ScanExtent(e *Extent, fn func(OID, []byte) bool) error {
	return s.Scan(e.parts[0], fn)
}

// PartFirstPage returns the first data page of the extent's only part.
func (s *ObjectStore) PartFirstPage(e *Extent, part int) PageID {
	return s.FirstScanPage(e.parts[part])
}

// PartPageList returns the extent's data pages in chain order.
func (s *ObjectStore) PartPageList(e *Extent, part int) ([]PageID, error) {
	return s.PageList(e.parts[part])
}

// ScanPartRecs reads one page of the extent, batch-delivering its records.
func (s *ObjectStore) ScanPartRecs(e *Extent, part int, pid PageID, readahead bool, scratch []ScanRecord, fn func(recs []ScanRecord) error) (PageID, []ScanRecord, error) {
	return s.ScanPageRecs(e.parts[part], pid, readahead, scratch, fn)
}

// PrefetchPart requests background loads of the extent's pages.
func (s *ObjectStore) PrefetchPart(part int, ids ...PageID) {
	s.Prefetch(ids...)
}

// ReadCount returns the cumulative simulated page reads of this store's disk.
func (s *ObjectStore) ReadCount() int64 {
	return s.bp.Disk().Stats().Reads()
}

// ShardReads returns the per-shard read counters (one entry).
func (s *ObjectStore) ShardReads() []int64 {
	return []int64{s.ReadCount()}
}

// freeOverflow releases every page of an overflow chain.
func (s *ObjectStore) freeOverflow(first PageID) error {
	for pid := first; pid != 0; {
		pg, err := s.bp.Fetch(pid)
		if err != nil {
			return err
		}
		next := pg.NextPage()
		if err := s.bp.Unpin(pid, false); err != nil {
			return err
		}
		s.bp.Drop(pid)
		if err := s.bp.Disk().FreePage(pid); err != nil {
			return err
		}
		pid = next
	}
	return nil
}
