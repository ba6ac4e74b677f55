package kernel

import (
	"fmt"

	"mood/internal/cluster"
	"mood/internal/storage"
	"mood/internal/wal"
)

// The online reorganizer: takes the clustering tracer's placement plan and
// applies it to the live database in small WAL-logged batches. Each batch is
// one transaction on the owning shard's log — MigrateRecords leaves forward
// stubs behind, so every OID stays valid throughout, and a crash in the
// middle of a batch is rolled back by ordinary ARIES recovery (the crashtest
// package's cluster mode exercises exactly that). After all placements are
// applied, fully-vacated source pages are unlinked and freed, traces reset,
// and the statistics base invalidated so the next plan prices the new
// layout.

// reorgMinObjects is the placement floor: parts with fewer traced objects
// are not worth rewriting.
const reorgMinObjects = 2

// defaultClusterBatch bounds how many records one migration transaction
// moves (and therefore how long the store's exclusive lock is held and how
// large the batch's log footprint grows).
const defaultClusterBatch = 64

// ReorgStats summarizes one Reorganize call.
type ReorgStats struct {
	// Placements is the number of extent parts rewritten.
	Placements int
	// Moved is the total records migrated.
	Moved int
	// PagesFreed counts the pages the trailing compaction removed from the
	// rewritten extents' scan chains — vacated source pages freed outright
	// plus stub-only pages parked for durable forwarding.
	PagesFreed int
}

// Tracer returns the clustering tracer, nil when tracing is off.
func (db *DB) Tracer() *cluster.Tracer { return db.tracer }

// Reorganize computes a clustering plan from the traces collected so far and
// applies it online. Safe to call concurrently with queries: each batch
// migrates under the owning store's exclusive lock and between query
// executions (moveMu), readers resolve moved records through forward stubs,
// and the object cache is invalidated per moved object. Returns without
// error (and without work) when nothing has been traced.
func (db *DB) Reorganize() (ReorgStats, error) {
	var rs ReorgStats
	if db.tracer == nil {
		return rs, fmt.Errorf("kernel: clustering is off (set Options.ClusterSampleEvery)")
	}
	db.reorgMu.Lock()
	defer db.reorgMu.Unlock()

	plans := db.tracer.Plan(reorgMinObjects)
	if len(plans) == 0 {
		return rs, nil
	}
	// Migration and compaction move pages under the extents without moving
	// any class's mutation counter, so the whole statistics base goes, on
	// failure too: batches committed before it moved records.
	defer db.invalidateStats()
	// Placements address (shard, file) pairs; map them back to the class
	// extents the catalog owns. Files not backing a class extent (system
	// tables, indexes) are never rewritten.
	type partKey struct {
		shard int
		file  storage.FileID
	}
	exts := map[partKey]*storage.Extent{}
	for _, cl := range db.Cat.Classes() {
		if !cl.IsClass || cl.Extent() == nil {
			continue
		}
		e := cl.Extent()
		for part := 0; part < e.Parts(); part++ {
			exts[partKey{part, e.PartFileID(part)}] = e
		}
	}

	touched := map[*storage.Extent]bool{}
	for _, p := range plans {
		e := exts[partKey{p.Shard, p.File}]
		if e == nil || p.Shard >= len(db.Shards) {
			continue
		}
		sh := db.Shards[p.Shard]
		// Rewrite the WHOLE part, traced objects first in affinity order and
		// the untraced residents after in scan order. Moving only the traced
		// subset would spread a formerly dense part across old and new pages
		// (the hot set gains nothing, the cold tail loses locality); the full
		// rewrite keeps the part dense and fully vacates the source pages.
		order := p.Order
		inPlan := make(map[storage.OID]bool, len(order))
		for _, oid := range order {
			inPlan[oid] = true
		}
		if err := db.Store.ScanExtent(e, func(oid storage.OID, _ []byte) bool {
			if oid.File() == p.File && oid.Shard() == p.Shard && !inPlan[oid] {
				order = append(order, oid)
			}
			return true
		}); err != nil {
			return rs, fmt.Errorf("kernel: reorganize scan: %w", err)
		}
		for start := 0; start < len(order); start += defaultClusterBatch {
			end := min(start+defaultClusterBatch, len(order))
			// The first batch opens a fresh destination page; later batches
			// keep packing its tail, so one placement lands dense.
			if err := db.migrateBatch(sh, e, p.Shard, order[start:end], start > 0, &rs); err != nil {
				return rs, err
			}
		}
		rs.Placements++
		touched[e] = true
	}

	// Vacated source pages (everything fully forwarded out) are unlinked
	// and returned to the allocator.
	for e := range touched {
		db.moveMu.Lock()
		freed, err := db.Store.CompactExtent(e)
		db.moveMu.Unlock()
		rs.PagesFreed += freed
		if err != nil {
			return rs, err
		}
	}
	// Old traces describe the old layout; start fresh so the next plan (and
	// the learned clustering factors) reflect post-reorganization behavior.
	db.tracer.Reset()
	return rs, nil
}

// migrateBatch moves one batch of records inside one WAL transaction on the
// owning shard's log.
func (db *DB) migrateBatch(sh *Shard, e *storage.Extent, part int, batch []storage.OID, cont bool, rs *ReorgStats) error {
	db.moveMu.Lock()
	defer db.moveMu.Unlock()
	tx := sh.Log.Begin()
	logger := func(pid storage.PageID, off int, before, after []byte) (uint32, error) {
		lsn, err := sh.Log.Update(tx, pid, off, before, after)
		return uint32(lsn), err
	}
	n, err := db.Store.MigrateRecords(e, part, batch, logger, cont)
	if err != nil {
		return db.rollbackBatch(sh, tx, part, e, batch, fmt.Errorf("kernel: reorganize: %w", err))
	}
	if err := sh.Log.Commit(tx); err != nil {
		return db.rollbackBatch(sh, tx, part, e, batch, fmt.Errorf("kernel: reorganize commit: %w", err))
	}
	// Bump each moved object's cache epoch: a fetch that raced the migration
	// (BeginFetch before, Put after) must not install what it read mid-move.
	if db.ocache != nil {
		for _, oid := range batch {
			db.ocache.Invalidate(oid)
		}
	}
	rs.Moved += n
	return nil
}

// rollbackBatch undoes a failed migration batch and re-aligns the in-memory
// state with the restored disk: the forwarding entries of the batch are
// forgotten (the stubs they mirrored were rolled back), the file's directory
// metadata reloaded, and the object cache dropped wholesale — undo rewrote
// pages underneath it.
func (db *DB) rollbackBatch(sh *Shard, tx wal.TxID, part int, e *storage.Extent, batch []storage.OID, cause error) error {
	aerr := sh.Log.Abort(tx, func(page storage.PageID, off int, image []byte, lsn wal.LSN) error {
		pg, err := sh.Pool.Fetch(page)
		if err != nil {
			return err
		}
		copy(pg.Bytes()[off:], image)
		pg.SetLSN(uint32(lsn))
		return sh.Pool.Unpin(page, true)
	})
	sh.Store.ForgetForward(batch...)
	if f, err := sh.FM.FileByID(e.PartFileID(part)); err == nil {
		_ = sh.FM.ReloadFile(f)
	}
	if db.ocache != nil {
		db.ocache.Reset()
	}
	if aerr != nil {
		return fmt.Errorf("%w (abort also failed: %v)", cause, aerr)
	}
	return cause
}
