package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Record migration: the storage half of the clustering subsystem.
//
// The reorganizer moves records so objects dereferenced together co-reside
// on pages, but an OID is a physical address — file, page, slot — and every
// reference stored in the database names the record's ORIGINAL coordinates.
// Migration therefore never reuses an OID for different content and never
// invalidates one:
//
//   - the moved record is rewritten at its destination as a RELOCATED record
//     ([recRelocated][original OID][inner record]), so scans surface it under
//     its original identity at its new physical position;
//   - the original slot keeps a 9-byte FORWARD stub ([recForward][dest OID]),
//     the durable forwarding entry a cold reader resolves through;
//   - an in-memory forwarding map (OID -> destination) lets warm readers —
//     Get and, critically, the batched FetchBatch the traversal operators
//     use — jump straight to the destination page without touching the stub
//     page at all. The map is rebuilt lazily from the on-disk stubs after a
//     reopen or crash recovery.
//
// Re-migration keeps chains at depth one: the ORIGINAL stub is repointed to
// the newest destination and the intermediate copy is tombstoned, so a cold
// resolution never follows more than one hop (maxForwardHops is defensive).
//
// Every page mutated by a migration batch is logged through the caller's
// PageLogger as a whole-page before/after image BEFORE the buffer frame is
// touched, so a crash mid-batch is undone (losers) or replayed (winners) by
// ARIES recovery exactly like any other logged update. The storage package
// cannot import internal/wal (wal sits above storage), so the kernel curries
// its per-shard log's Update into the PageLogger shape.

// Additional record tags (recPlain and recOverflow live in store.go).
const (
	// recForward marks a 9-byte stub left at a migrated record's original
	// slot: [tag][destination OID, u64 LE].
	recForward byte = 2
	// recRelocated frames a migrated record at its destination:
	// [tag][original OID, u64 LE][inner record, including its own tag].
	recRelocated byte = 3
)

const (
	forwardRecSize = 1 + 8
	relocHeadSize  = 1 + 8
	maxForwardHops = 4
)

// PageLogger logs one whole-page update on behalf of the storage layer and
// returns the record's LSN, to be stamped on the page. The kernel curries a
// WAL transaction's Update method into this shape (offset is always 0 and
// before/after are full page images).
type PageLogger func(pid PageID, off int, before, after []byte) (uint32, error)

func forwardDst(rec []byte) OID {
	return OID(binary.LittleEndian.Uint64(rec[1:]))
}

func relocOrig(rec []byte) OID {
	return OID(binary.LittleEndian.Uint64(rec[1:]))
}

// forwardOf returns the record's current physical address per the in-memory
// forwarding map (the OID itself when the record never moved).
func (s *ObjectStore) forwardOf(oid OID) OID {
	if v, ok := s.fwd.Load(oid); ok {
		return v.(OID)
	}
	return oid
}

// Forwarded reports the in-memory forwarding entry for oid, if any. Tests
// and the reorganizer use it; readers go through forwardOf.
func (s *ObjectStore) Forwarded(oid OID) (OID, bool) {
	if v, ok := s.fwd.Load(oid); ok {
		return v.(OID), true
	}
	return NilOID, false
}

// learnForward caches a stub resolution discovered on a read path. Read
// paths never overwrite an existing entry: the map is only ever ahead of or
// equal to the on-disk stubs (migration updates both under the exclusive
// lock), so an existing entry is at least as current as the stub just read.
func (s *ObjectStore) learnForward(orig, dst OID) {
	if orig != dst {
		s.fwd.LoadOrStore(orig, dst)
	}
}

// ForgetForward drops in-memory forwarding entries. The reorganizer calls
// it after aborting a migration transaction: the on-disk stubs were undone,
// so the map entries pointing at the rolled-back destinations must go too
// (committed moves are simply re-learned from their stubs).
func (s *ObjectStore) ForgetForward(oids ...OID) {
	for _, oid := range oids {
		s.fwd.Delete(oid)
	}
}

// locateLocked resolves oid to the physical slot currently holding its
// record, following at most maxForwardHops on-disk stubs (depth one by
// construction) and caching what it learns. Caller holds s.mu (either mode).
func (s *ObjectStore) locateLocked(oid OID) (OID, error) {
	cur := s.forwardOf(oid)
	for hops := 0; hops < maxForwardHops; hops++ {
		pg, err := s.bp.Fetch(cur.Page())
		if err != nil {
			return NilOID, err
		}
		rec, gerr := pg.Get(cur.Slot())
		if gerr != nil {
			s.bp.Unpin(cur.Page(), false)
			return NilOID, gerr
		}
		isFwd := rec[0] == recForward
		var dst OID
		if isFwd {
			dst = forwardDst(rec)
		}
		if err := s.bp.Unpin(cur.Page(), false); err != nil {
			return NilOID, err
		}
		if !isFwd {
			return cur, nil
		}
		s.learnForward(oid, dst)
		cur = dst
	}
	return NilOID, fmt.Errorf("storage: forwarding chain too deep at %s", oid)
}

// loggedPageMutate applies fn to the page as one WAL-logged whole-page
// update: the mutation runs on a scratch copy first, the before/after images
// are logged, and only then does the frame change and carry the new LSN — a
// failed log append leaves the frame untouched, so an unlogged mutation can
// never reach disk. With a nil logger fn mutates the frame directly.
func (s *ObjectStore) loggedPageMutate(pid PageID, logPage PageLogger, fn func(pg *Page) error) error {
	pg, err := s.bp.Fetch(pid)
	if err != nil {
		return err
	}
	if logPage == nil {
		if err := fn(pg); err != nil {
			s.bp.Unpin(pid, false)
			return err
		}
		return s.bp.Unpin(pid, true)
	}
	before := append([]byte(nil), pg.Bytes()...)
	scratch := NewPage(pid, append([]byte(nil), pg.Bytes()...))
	if err := fn(scratch); err != nil {
		s.bp.Unpin(pid, false)
		return err
	}
	lsn, lerr := logPage(pid, 0, before, scratch.Bytes())
	if lerr != nil {
		s.bp.Unpin(pid, false)
		return lerr
	}
	copy(pg.Bytes(), scratch.Bytes())
	pg.SetLSN(lsn)
	return s.bp.Unpin(pid, true)
}

// appendPageLogged grows the file by one heap page with every structural
// change (page init, chain link, directory record) logged, so a crash in the
// middle of a reorganization cannot orphan migrated records: redo replays
// the link and the directory, undo rolls all three back to an unreachable —
// and therefore harmless — allocated page.
func (s *ObjectStore) appendPageLogged(f *File, logPage PageLogger) (PageID, error) {
	pg, err := s.bp.NewPage()
	if err != nil {
		return 0, err
	}
	pid := pg.ID
	if err := s.bp.Unpin(pid, true); err != nil {
		return 0, err
	}
	if err := s.loggedPageMutate(pid, logPage, func(p *Page) error {
		p.InitHeap(PageKindHeap)
		return nil
	}); err != nil {
		return 0, err
	}
	if f.lastPage != 0 {
		if err := s.loggedPageMutate(f.lastPage, logPage, func(p *Page) error {
			p.SetNextPage(pid)
			return nil
		}); err != nil {
			return 0, err
		}
	} else {
		f.firstPage = pid
	}
	f.lastPage = pid
	if len(f.pages) == f.NumPages() {
		f.pages = append(f.pages, pid)
	}
	f.numPages.Add(1)
	if err := s.loggedPageMutate(s.fm.dirPage, logPage, func(p *Page) error {
		return p.Update(f.dirSlot, encodeDirRecord(f))
	}); err != nil {
		return 0, err
	}
	return pid, nil
}

// MigrateRecords relocates the given records of one extent part onto fresh
// pages appended at the end of the part's file, in the order given — the
// physical realization of a clustering placement. Records already migrated
// are moved again from their current home, with the original stub repointed
// (chains stay depth one). Records deleted since planning are skipped. The
// return value is the number of records actually moved.
//
// cont selects the destination of the first copy: false opens a fresh page
// (the start of a new placement, so a later re-migration fully vacates this
// placement's pages and compaction can reclaim them), true continues packing
// the file's tail page — which is the previous batch's destination when one
// placement is applied in several batches.
//
// OIDs are preserved: every oid passed in keeps resolving, through the
// forwarding map or its on-disk stub, to the same payload. The object-cache
// invalidation hook fires per moved record (same discipline as Update), and
// every mutated page goes through logPage (see PageLogger) when non-nil.
//
// The store's exclusive lock is held for the whole batch, so callers should
// migrate in small batches to bound reader stalls.
func (s *ObjectStore) MigrateRecords(e *Extent, part int, oids []OID, logPage PageLogger, cont bool) (int, error) {
	if part < 0 || part >= len(e.parts) {
		return 0, fmt.Errorf("storage: migrate: part %d out of range (extent %q has %d)", part, e.Name, len(e.parts))
	}
	f := e.parts[part]
	s.mu.Lock()
	defer s.mu.Unlock()

	maxRec := MaxRecordSize(s.bp.Disk().PageSize())
	moved := 0
	var dstPID PageID // 0: append a fresh page on first need
	if cont {
		dstPID = f.lastPage
	}
	for _, oid := range oids {
		if oid.File() != f.ID || oid.Shard() != s.shard {
			return moved, fmt.Errorf("storage: migrate: %s is not a record of file %d on shard %d", oid, f.ID, s.shard)
		}
		cur, err := s.locateLocked(oid)
		if err != nil {
			if errors.Is(err, ErrRecordGone) {
				continue
			}
			return moved, err
		}

		// Snapshot the record to move (framed once if already relocated).
		pg, err := s.bp.Fetch(cur.Page())
		if err != nil {
			return moved, err
		}
		rec, gerr := pg.Get(cur.Slot())
		if gerr != nil {
			s.bp.Unpin(cur.Page(), false)
			if errors.Is(gerr, ErrRecordGone) {
				continue
			}
			return moved, gerr
		}
		inner := rec
		if rec[0] == recRelocated {
			inner = rec[relocHeadSize:]
		}
		relo := make([]byte, relocHeadSize+len(inner))
		relo[0] = recRelocated
		binary.LittleEndian.PutUint64(relo[1:], uint64(oid))
		copy(relo[relocHeadSize:], inner)
		if err := s.bp.Unpin(cur.Page(), false); err != nil {
			return moved, err
		}
		if len(relo) > maxRec {
			// The inline record is too large to carry the relocation frame;
			// leave it where it is (overflow records never hit this: only
			// their 9-byte head moves).
			continue
		}

		// Copy to the destination, appending a fresh page when full.
		var dstSlot SlotID
		for {
			if dstPID == 0 {
				dstPID, err = s.appendPageLogged(f, logPage)
				if err != nil {
					return moved, err
				}
			}
			var full bool
			err = s.loggedPageMutate(dstPID, logPage, func(p *Page) error {
				slot, ierr := p.Insert(relo)
				if ierr != nil {
					return ierr
				}
				dstSlot = slot
				return nil
			})
			if errors.Is(err, ErrPageFull) {
				full = true
				dstPID = 0
			} else if err != nil {
				return moved, err
			}
			if !full {
				break
			}
		}
		dst := MakeOID(f.ID, dstPID, dstSlot) | s.tag

		// Repoint the original slot to the new home...
		stub := make([]byte, forwardRecSize)
		stub[0] = recForward
		binary.LittleEndian.PutUint64(stub[1:], uint64(dst))
		if err := s.loggedPageMutate(oid.Page(), logPage, func(p *Page) error {
			return p.Update(oid.Slot(), stub)
		}); err != nil {
			if errors.Is(err, ErrPageFull) {
				// The original record is smaller than a stub and its page
				// cannot grow it: retract the copy and leave the record.
				_ = s.loggedPageMutate(dstPID, logPage, func(p *Page) error {
					return p.Delete(dstSlot)
				})
				continue
			}
			return moved, err
		}
		// ...and tombstone the intermediate copy of a re-migrated record.
		if cur != oid {
			if err := s.loggedPageMutate(cur.Page(), logPage, func(p *Page) error {
				return p.Delete(cur.Slot())
			}); err != nil {
				return moved, err
			}
		}
		s.fwd.Store(oid, dst)
		s.invalidate(oid)
		moved++
	}
	return moved, nil
}

// CompactExtent removes from the extent's scan chains every page that no
// longer carries record content, and returns the number of pages removed.
// Two cases:
//
//   - pages with no live slot (all tombstones) are unlinked AND freed;
//   - pages whose live slots are ALL forward stubs are unlinked but stay
//     allocated ("parked"). The stubs are the durable forwarding entries a
//     cold reopen resolves migrated OIDs through, and Get reaches them
//     directly by the OID's page id — chain membership is only for scans.
//     Parking them is what makes a reorganized extent scan at its dense
//     page count instead of paying for every vacated source page forever.
//
// The structural change is made crash-safe by ordering, not logging: the
// chain relink and directory record are flushed BEFORE an empty page is
// returned to the allocator, so a reopened directory never points into a
// freed page. A parked page is never freed, so either chain state is safe.
func (s *ObjectStore) CompactExtent(e *Extent) (int, error) {
	freed := 0
	for _, f := range e.parts {
		n, err := s.compactFile(f)
		freed += n
		if err != nil {
			return freed, err
		}
	}
	return freed, nil
}

func (s *ObjectStore) compactFile(f *File) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	freed := 0
	var prev PageID
	pid := f.firstPage
	for pid != 0 {
		pg, err := s.bp.Fetch(pid)
		if err != nil {
			return freed, err
		}
		next := pg.NextPage()
		live := pg.LiveRecords()
		park := live > 0 && pg.forwardOnly()
		if err := s.bp.Unpin(pid, false); err != nil {
			return freed, err
		}
		if live > 0 && !park {
			prev = pid
			pid = next
			continue
		}
		// Unlink, persist the structure, then free (unless parked).
		if prev == 0 {
			f.firstPage = next
		} else {
			ppg, err := s.bp.Fetch(prev)
			if err != nil {
				return freed, err
			}
			ppg.SetNextPage(next)
			if err := s.bp.Unpin(prev, true); err != nil {
				return freed, err
			}
		}
		if f.lastPage == pid {
			f.lastPage = prev
		}
		f.numPages.Add(^uint32(0))
		f.pages = nil // chain cache cold; PageList rebuilds it
		if err := s.fm.syncDir(f); err != nil {
			return freed, err
		}
		if prev != 0 {
			if err := s.bp.FlushPage(prev); err != nil {
				return freed, err
			}
		}
		if err := s.bp.FlushPage(s.fm.dirPage); err != nil {
			return freed, err
		}
		if park {
			// The stubs must stay readable at their original page id; make
			// sure the (now chain-orphaned) page is durable before the frame
			// can be recycled.
			if err := s.bp.FlushPage(pid); err != nil {
				return freed, err
			}
		} else {
			s.bp.Drop(pid)
			if err := s.bp.Disk().FreePage(pid); err != nil {
				return freed, err
			}
		}
		freed++
		pid = next
	}
	return freed, nil
}

// forwardOnly reports whether every live record of the page is a forward
// stub — the state of a fully-vacated migration source page, which
// compaction parks out of the scan chain.
func (p *Page) forwardOnly() bool {
	for i := 0; i < p.NumSlots(); i++ {
		off := p.slotOffset(i)
		if off == 0 {
			continue
		}
		if p.buf[off] != recForward {
			return false
		}
	}
	return true
}
