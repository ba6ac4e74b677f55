package storage

import (
	"errors"
	"sort"
	"time"
)

// Preload is a set of pages loaded into buffer pools and pinned ahead of the
// work that reads them. The parallel executor fills one per task while it
// holds its task-claim lock: every disk is then charged the task's page reads
// in task order — the order a one-worker run produces — so the
// sequential-vs-random split of simulated time does not depend on how the
// worker goroutines are scheduled. The worker sleeps the owed latency off
// after dropping the lock (concurrent workers still overlap their waits),
// runs the task against pool hits, and releases the pins.
//
// A Preload is owned by one goroutine. The zero value is empty and ready.
type Preload struct {
	pins []preloadPin
	owed time.Duration
}

type preloadPin struct {
	bp *BufferPool
	id PageID
}

// Wait blocks for the wall-clock latency the preload's disk reads owe (zero
// unless latency emulation is on) and clears the debt.
func (p *Preload) Wait() {
	if p.owed > 0 {
		waitFor(p.owed)
		p.owed = 0
	}
}

// Release unpins every preloaded page and empties the preload for reuse.
func (p *Preload) Release() error {
	var errs []error
	for _, pin := range p.pins {
		errs = append(errs, pin.bp.Unpin(pin.id, false))
	}
	p.pins = p.pins[:0]
	return errors.Join(errs...)
}

// Preload pins the pages into the pool in the given order, reading each
// missing page from disk without its latency wait; the pins and the owed
// wait accrue to p. It is best-effort under buffer pressure: it stops at the
// first page that would pin more than half of its pool shard's frames, and
// whoever reads the remaining pages later fetches them itself (so the reads
// stay exactly the same; only their order is no longer fixed).
func (bp *BufferPool) Preload(p *Preload, ids []PageID) error {
	for _, id := range ids {
		buf, us, err := bp.pin(id, false, true)
		if err != nil {
			return err
		}
		if buf == nil {
			return nil
		}
		p.pins = append(p.pins, preloadPin{bp, id})
		p.owed += bp.disk.wallFor(us)
	}
	return nil
}

// PreloadBatch preloads the pages a FetchBatch of oids reads in its page
// pass, in the order it reads them: each record's current page after
// forwarding, distinct pages ascending. Overflow chains and not-yet-learned
// forward stubs are discovered only by reading those pages, so FetchBatch
// still reads them itself.
func (s *ObjectStore) PreloadBatch(p *Preload, oids []OID) error {
	if len(oids) == 0 {
		return nil
	}
	tr := make([]OID, len(oids))
	for i, oid := range oids {
		tr[i] = s.forwardOf(oid)
	}
	sort.Slice(tr, func(a, b int) bool { return tr[a] < tr[b] })
	pages := make([]PageID, 0, len(tr))
	for k, oid := range tr {
		if k == 0 || oid.Page() != tr[k-1].Page() {
			pages = append(pages, oid.Page())
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bp.Preload(p, pages)
}

// PreloadPart preloads pages of the extent's single part, in the order
// given.
func (s *ObjectStore) PreloadPart(p *Preload, part int, ids []PageID) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bp.Preload(p, ids)
}

// PreloadBatch routes each OID to its shard and preloads every shard's
// sub-batch on that shard's pool, exactly as FetchBatch partitions the
// fetch.
func (s *ShardedStore) PreloadBatch(p *Preload, oids []OID) error {
	if len(s.shards) == 1 {
		return s.shards[0].PreloadBatch(p, oids)
	}
	byShard := make([][]OID, len(s.shards))
	for _, oid := range oids {
		byShard[oid.Shard()] = append(byShard[oid.Shard()], oid)
	}
	for sh, sub := range byShard {
		if err := s.shards[sh].PreloadBatch(p, sub); err != nil {
			return err
		}
	}
	return nil
}

// PreloadPart preloads pages of one shard's part, in the order given.
func (s *ShardedStore) PreloadPart(p *Preload, part int, ids []PageID) error {
	return s.shards[part].PreloadPart(p, 0, ids)
}
