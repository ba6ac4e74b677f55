// Crash-during-group-commit: concurrent committers share one leader force,
// and the crash lands exactly at a leader's force point — the moment a whole
// commit window is about to become durable at once. The invariants are the
// group-commit contract, stated so they hold under ANY goroutine
// interleaving (the workload is concurrent, so unlike crashtest.Run the
// per-run trace is not a pure function of the seed — only the fault plan and
// each worker's write content are):
//
//   - acked ⇒ durable: every Commit that returned nil survives recovery
//     byte-for-byte, even though its fsync was performed by another
//     session's leader;
//   - unacked ⇒ rolled back: every Commit that returned an error left its
//     commit record in the volatile log suffix (the fault fires before the
//     horizon advances), so recovery undoes the transaction completely — no
//     half-acknowledged window member is replayed.
package crashtest

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mood/internal/fault"
	"mood/internal/storage"
	"mood/internal/wal"
)

// GroupConfig sizes one crash-during-group-commit iteration. Zero values
// select CI-friendly defaults.
type GroupConfig struct {
	Seed          int64
	Workers       int // concurrent committing sessions
	TxnsPerWorker int
	WritesPerTxn  int
	Pages         int
	// CrashAtForce arms a hard crash at the Nth leader force (1-based).
	// 0 draws N from the seed in [1, TxnsPerWorker] — a successful force
	// acknowledges at most one queued commit per worker, so at least
	// TxnsPerWorker forces happen and the fault is guaranteed to fire.
	// Negative runs fault-free (the control: everything must be acked and
	// survive).
	CrashAtForce int64
	// SyncDelay is the simulated fsync latency; a nonzero delay holds the
	// leader in the force long enough for followers to pile into the window.
	SyncDelay time.Duration
}

func (c GroupConfig) withDefaults() GroupConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.TxnsPerWorker <= 0 {
		c.TxnsPerWorker = 6
	}
	if c.WritesPerTxn <= 0 {
		c.WritesPerTxn = 3
	}
	if c.Pages <= 0 {
		c.Pages = 4
	}
	if c.SyncDelay == 0 {
		c.SyncDelay = 200 * time.Microsecond
	}
	return c
}

// GroupResult reports one iteration, for coverage accounting. Acked/Failed
// counts depend on scheduling; Fired and the invariant verdict do not.
type GroupResult struct {
	Seed     int64
	Fired    bool // the armed force fault actually tripped
	Acked    int  // Commit calls that returned nil
	Failed   int  // Commit calls that returned an error
	Forces   int64
	Recovery wal.RecoveryStats
}

// groupTxn is one transaction's fate as observed by its session.
type groupTxn struct {
	writes map[storage.PageID]map[int]byte
	acked  bool
}

// RunGroup executes one crash-during-group-commit iteration and verifies the
// acked⇒durable / unacked⇒rolled-back invariants. Every error embeds
// cfg.Seed for replay.
func RunGroup(cfg GroupConfig) (GroupResult, error) {
	cfg = cfg.withDefaults()
	res := GroupResult{Seed: cfg.Seed}
	fail := func(format string, args ...interface{}) (GroupResult, error) {
		return res, fmt.Errorf("crashtest seed %d group-commit: %s",
			cfg.Seed, fmt.Sprintf(format, args...))
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	disk := storage.NewDiskSim(storage.DefaultDiskParams())
	disk.SetDoublewrite(true)
	// Frames cover the working set: no evictions, so the only OpLogFlush
	// occurrences are leader forces and the crash lands inside group commit.
	bp := storage.NewBufferPool(disk, cfg.Pages+2)
	log := wal.NewLog()
	bp.SetFlushHook(log.FlushHook())
	log.SetGroupCommit(true)
	log.SetSyncDelay(cfg.SyncDelay)

	pages := make([]storage.PageID, cfg.Pages)
	for i := range pages {
		pg, err := bp.NewPage()
		if err != nil {
			return fail("setup: %v", err)
		}
		pages[i] = pg.ID
		if err := bp.Unpin(pg.ID, true); err != nil {
			return fail("setup unpin: %v", err)
		}
	}
	if err := bp.FlushAll(); err != nil {
		return fail("setup flush: %v", err)
	}

	fi := fault.New(cfg.Seed)
	crashAt := cfg.CrashAtForce
	if crashAt == 0 {
		crashAt = int64(1 + rng.Intn(cfg.TxnsPerWorker))
	}
	if crashAt > 0 {
		fi.FailAt(fault.OpLogFlush, crashAt, fault.Crash)
	}
	disk.SetFaultInjector(fi)
	log.SetFaultInjector(fi)

	// Every (worker, txn) pair owns a disjoint byte region of every page, so
	// the winner/loser checks are byte-exact regardless of interleaving.
	totalTxns := cfg.Workers * cfg.TxnsPerWorker
	regionBase := 32
	regionLen := (disk.PageSize() - regionBase) / totalTxns
	if regionLen < cfg.WritesPerTxn {
		return fail("too many transactions (%d) for the page size", totalTxns)
	}

	// Workers commit concurrently; each one's write content is a pure
	// function of (seed, worker), only the window membership is scheduled.
	txns := make([][]groupTxn, cfg.Workers)
	// Sessions share pages, so each page's log-append, apply and LSN stamp
	// run under that page's latch, as under a storage layer's exclusive
	// page latch: no torn LSN, and page LSNs stay in log order.
	latches := make([]sync.Mutex, len(pages))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		w := w
		txns[w] = make([]groupTxn, 0, cfg.TxnsPerWorker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(cfg.Seed ^ int64(0x9e3779b9*uint32(w+1))))
			for t := 0; t < cfg.TxnsPerWorker; t++ {
				tx := log.Begin()
				region := regionBase + (w*cfg.TxnsPerWorker+t)*regionLen
				writes := map[storage.PageID]map[int]byte{}
				ok := true
				for i := 0; i < cfg.WritesPerTxn; i++ {
					pi := wrng.Intn(len(pages))
					p := pages[pi]
					off := region + wrng.Intn(regionLen)
					val := byte(1 + wrng.Intn(255))
					latches[pi].Lock()
					err := loggedWrite(log, bp, tx, p, off, val)
					latches[pi].Unlock()
					if err != nil {
						ok = false // post-crash append; the tx is a loser
						break
					}
					if writes[p] == nil {
						writes[p] = map[int]byte{}
					}
					writes[p][off] = val
				}
				// One straggler txn per worker pauses between its updates and
				// its commit, so concurrent leaders force the updates durable
				// first. If the crash then kills this commit, recovery finds
				// a loser with durable updates and must genuinely undo them —
				// without this, losers only ever live in the truncated
				// volatile suffix and the undo pass goes untested here.
				if ok && t == w%cfg.TxnsPerWorker {
					time.Sleep(2 * cfg.SyncDelay)
				}
				acked := false
				if ok {
					// On error the transaction stays active with a volatile
					// commit record; it must NOT be aborted (wal.Commit's
					// contract) — it is a loser for recovery to undo.
					acked = log.Commit(tx) == nil
				}
				txns[w] = append(txns[w], groupTxn{writes: writes, acked: acked})
				if acked {
					continue
				}
				// The crash has fired (the only armed fault is hard); every
				// later operation fails too, so this session stops here.
				return
			}
		}()
	}
	wg.Wait()
	res.Fired = len(fi.Trips()) > 0
	res.Forces = log.FlushCount()
	if crashAt > 0 && !res.Fired {
		return fail("armed force crash at occurrence %d never fired (%d forces)", crashAt, res.Forces)
	}

	// ---- Reboot ----
	disk.SetFaultInjector(nil)
	log.SetFaultInjector(nil)
	for _, id := range disk.CorruptPages() {
		if err := disk.RepairPage(id); err != nil {
			return fail("repair page %d: %v", id, err)
		}
	}
	bp2 := storage.NewBufferPool(disk, cfg.Pages+8)
	bp2.SetFlushHook(log.FlushHook())
	st, err := log.Recover(bp2)
	if err != nil {
		return fail("recovery: %v", err)
	}
	res.Recovery = st

	// ---- Invariants ----
	for w := range txns {
		for t, txn := range txns[w] {
			if txn.acked {
				res.Acked++
			} else {
				res.Failed++
			}
			for p, offs := range txn.writes {
				pg, err := bp2.Fetch(p)
				if err != nil {
					return fail("fetch page %d: %v", p, err)
				}
				buf := pg.Bytes()
				for off, want := range offs {
					got := buf[off]
					if txn.acked && got != want {
						bp2.Unpin(p, false)
						return fail("acked commit lost: worker %d txn %d page %d off %d = %d, want %d",
							w, t, p, off, got, want)
					}
					if !txn.acked && got != 0 {
						bp2.Unpin(p, false)
						return fail("unacked commit replayed: worker %d txn %d page %d off %d = %d",
							w, t, p, off, got)
					}
				}
				if err := bp2.Unpin(p, false); err != nil {
					return fail("unpin: %v", err)
				}
			}
		}
	}
	if crashAt < 0 && res.Failed != 0 {
		return fail("fault-free control run failed %d commits", res.Failed)
	}
	// Each successful force has exactly one leader whose commit it acks, so
	// forces never exceed acked commits; fewer means windows actually formed.
	if res.Acked > 0 && res.Forces > int64(res.Acked) {
		return fail("%d forces for %d acked commits: group commit not amortizing", res.Forces, res.Acked)
	}
	if active := log.ActiveTransactions(); len(active) != 0 {
		return fail("transactions still active after recovery: %v", active)
	}
	if err := bp2.FlushAll(); err != nil {
		return fail("post-recovery flush: %v", err)
	}
	if bad := disk.CorruptPages(); len(bad) != 0 {
		return fail("checksum mismatches after recovery: pages %v", bad)
	}
	return res, nil
}
