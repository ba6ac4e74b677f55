package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/optimizer"
	"mood/internal/storage"
)

// This file is the morsel-driven parallel execution path: the physical
// operator compiled from an optimizer.ExchangePlan. An exchange does not
// implement scans, index selections or joins itself. The serial operator
// its input compiles to hands over its own work as an ordered task set —
// page-range morsels for extent scans, OID chunks for index selections and
// hash-join probes — and the exchange fans the tasks out to a bounded pool
// of worker goroutines, merging the per-task row batches back into one
// stream in task order. Tasks are numbered in the exact order the serial
// operator would produce their rows and workers claim tasks through a
// shared counter (claim order = task order), so the merged stream is
// byte-identical to the serial one and out-of-order buffering stays
// bounded by the worker count.
//
// On the simulated disk the win is latency hiding, not CPU parallelism:
// with DiskSim latency emulation enabled, concurrent workers overlap their
// per-page sleeps, so wall-clock time shrinks. Simulated time must not move
// with the schedule, yet a disk prices each read by the read before it
// (sequential or a new positioning). So every task set names each task's
// pages, and a worker loads them — charged, not yet slept — while it holds
// the claim lock: each disk sees the reads in task order, as with one worker.

// exchangeMorselPages is the morsel size for parallel extent scans: how many
// consecutive chain-order pages one scan task covers. Small enough that a
// short extent still splits across workers, large enough that the per-task
// scheduling overhead stays well under the simulated cost of its pages.
// It equals the serial cursor's shard-rotation run length on purpose: the
// Seq-merged parallel row order then matches the serial order at any shard
// count, which the differential wall asserts.
const exchangeMorselPages = catalog.MorselPages

// exchangeOIDChunk is the task size for parallel index selections and
// hash-join probes: how many candidate OIDs one task dereferences.
const exchangeOIDChunk = 32

// WorkerStat is one worker's contribution to a parallel operator: rows it
// emitted and page fetches it issued (buffer-pool hits included, so the sum
// across workers can exceed the simulated disk-read delta when the pool
// absorbs re-reads).
type WorkerStat struct {
	Rows  int64
	Pages int64
}

// taskSet is an operator's remaining work split into ordered tasks: n
// tasks, preload pinning one task's pages into a Preload (see claim), and
// run executing one task with the calling worker's own row evaluator —
// evaluators reuse one expression environment and are not shareable across
// goroutines; eval makes one per worker (nil: the tasks need none). run
// appends the task's rows to out and returns the page fetches it issued.
type taskSet struct {
	n       int
	eval    func() *algebra.RowEvaluator
	preload func(task int, p *storage.Preload) error
	run     func(re *algebra.RowEvaluator, task int, out *RowBatch) (int, error)
}

// exchangeable is implemented by the serial operators an exchange can
// schedule: the extent scan (with or without a fused selection), the index
// selection, and the hash-partition join. tasks does the serial setup Open
// would do (morsel discovery, index probe, join build) and returns the rest
// of the operator's work as a task set built from its own row-building,
// recheck and merge code.
type exchangeable interface {
	Operator
	tasks() (taskSet, error)
}

type taskResult struct {
	seq  int
	rows *RowBatch
	err  error
}

// exchangeOp runs an exchangeable operator's task set on exchangeCore. In
// eager mode (EXPLAIN ANALYZE) the whole fan-out runs inside Open, so the
// stats wrapper's page delta around Open captures the operator's full
// footprint exactly; in lazy mode workers produce in the background while
// the consumer pulls.
type exchangeOp struct {
	exchangeCore
	src exchangeable
}

func (o *exchangeOp) Open() error {
	ts, err := o.src.tasks()
	if err != nil {
		return err
	}
	return o.start(ts)
}

func (o *exchangeOp) NextBatch(b *RowBatch) (int, error) { return o.nextBatch(b) }

// Close stops the pool, then closes the scheduled operator (and with it a
// join's inputs).
func (o *exchangeOp) Close() error {
	o.closeCore()
	return o.src.Close()
}

// compileExchange lowers an ExchangePlan: its input compiles serially, and
// an input operator that splits into tasks is scheduled by an exchange
// under the input's header and children. Any other shape stays the serial
// operator it compiled to, with its own instrumentation, so an exchange
// can never change results — only scheduling.
func (e *Executor) compileExchange(c *compiled, n *optimizer.ExchangePlan, an *analyzeCtx) (*compiled, error) {
	in, err := e.compileNode(n.Input, an, c.lay)
	if err != nil {
		return nil, err
	}
	src, ok := in.raw.(exchangeable)
	if !ok {
		return in, nil
	}
	c.hdr, c.kids, c.slots = in.hdr, in.kids, in.slots
	c.op = &exchangeOp{
		exchangeCore: exchangeCore{width: c.lay.Width(), workers: exchangeWorkers(n.Workers), eager: an != nil},
		src:          src,
	}
	return c, nil
}

// exchangeCore schedules numbered tasks across worker goroutines and merges
// their row batches back in task order.
type exchangeCore struct {
	width   int // the plan's row width
	workers int
	eager   bool

	ts      taskSet
	claimMu sync.Mutex // serializes claim + preload
	next    int        // next task to claim; guarded by claimMu
	stop    atomic.Bool
	results chan taskResult
	wg      sync.WaitGroup
	wstats  []WorkerStat

	buf      map[int]*RowBatch // completed tasks awaiting their turn
	seq      int               // next task to emit
	cur      *RowBatch
	ci       int
	err      error
	started  bool
	launched bool
	closed   bool
}

// exchangeWorkers resolves the degree of parallelism of a plan node:
// non-positive falls back to GOMAXPROCS.
func exchangeWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// start registers the task set. In eager mode the pool launches and drains
// immediately, inside the caller's Open; in lazy mode launch is deferred to
// the first NextBatch, so no work happens before the consumer demands a row
// (and instrumentation around Open measures only the serial setup: morsel
// discovery, index probes, join builds).
func (c *exchangeCore) start(ts taskSet) error {
	c.ts = ts
	c.buf = make(map[int]*RowBatch)
	c.started = true
	if c.eager {
		c.launch()
		return c.drainEager()
	}
	return nil
}

// launch spawns the worker goroutines. Workers claim tasks in task order,
// so the merge buffer stays bounded by the worker count. After a claim the
// worker sleeps off the latency its task's preloaded reads owe — outside the
// claim lock, so workers overlap their waits — runs the task against the
// pinned pages, and releases them.
func (c *exchangeCore) launch() {
	if c.launched {
		return
	}
	c.launched = true
	c.results = make(chan taskResult, c.ts.n)
	nw := c.workers
	if nw < 1 {
		nw = 1
	}
	if nw > c.ts.n {
		nw = c.ts.n
	}
	c.wstats = make([]WorkerStat, nw)
	for w := 0; w < nw; w++ {
		ws := &c.wstats[w]
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			var re *algebra.RowEvaluator
			if c.ts.eval != nil {
				re = c.ts.eval()
			}
			var pl storage.Preload
			for !c.stop.Load() {
				t, err := c.claim(&pl)
				if t >= c.ts.n {
					return
				}
				var rows *RowBatch
				if err == nil {
					pl.Wait()
					rows = &RowBatch{width: c.width}
					var pages int
					pages, err = c.ts.run(re, t, rows)
					ws.Rows += int64(rows.Len())
					ws.Pages += int64(pages)
				}
				if rerr := pl.Release(); err == nil {
					err = rerr
				}
				// The channel holds every task's result, so this send
				// never blocks and Close never deadlocks a worker.
				c.results <- taskResult{seq: t, rows: rows, err: err}
				if err != nil {
					c.stop.Store(true)
					return
				}
			}
		}()
	}
}

// claim takes the next task number and pins that task's pages into p
// before the claim lock drops. Disk reads are therefore charged task by
// task in task order whatever the goroutine schedule, and simulated time —
// whose random/sequential split depends on read order — equals a
// one-worker run's. Reads a task makes beyond the pages it names
// (overflow chains, references chased by a predicate) are charged when the
// task makes them. Returns ts.n when none are left.
func (c *exchangeCore) claim(p *storage.Preload) (int, error) {
	c.claimMu.Lock()
	defer c.claimMu.Unlock()
	t := c.next
	if t >= c.ts.n {
		return t, nil
	}
	c.next++
	return t, c.ts.preload(t, p)
}

// drainEager collects every task's result before returning, so an analyzed
// exchange does all its work (and all its page reads) inside Open.
func (c *exchangeCore) drainEager() error {
	for got := 0; got < c.ts.n; got++ {
		res := <-c.results
		if res.err != nil {
			c.err = res.err
			break
		}
		c.buf[res.seq] = res.rows
	}
	c.wg.Wait()
	return c.err
}

// nextBatch emits the merged stream: the current task's buffered rows,
// then the next task in sequence — waiting on the results channel until
// that task completes; a worker error surfaces as soon as its result
// arrives. Task outputs rarely align with the batch (a morsel yields
// pages×rows-per-page rows), so the fill continues across task boundaries:
// the current task's remainder, then as many whole/partial successor tasks
// as fit. Only stream end yields a short batch, which keeps the merged
// batch stream — not just the row stream — identical to a serial
// operator's and is what the partial-final-batch regression test pins.
func (c *exchangeCore) nextBatch(b *RowBatch) (int, error) {
	if !c.launched && c.started {
		c.launch()
	}
	n, w := 0, c.width
	for n < b.Len() {
		if c.err != nil {
			return 0, c.err
		}
		if c.cur != nil && c.ci < c.cur.Len() {
			take := min(b.Len()-n, c.cur.Len()-c.ci)
			copy(b.Slots[n*w:(n+take)*w], c.cur.Slots[c.ci*w:(c.ci+take)*w])
			n += take
			c.ci += take
			continue
		}
		if c.seq >= c.ts.n {
			break
		}
		if rows, ok := c.buf[c.seq]; ok {
			delete(c.buf, c.seq)
			c.cur, c.ci = rows, 0
			c.seq++
			continue
		}
		res := <-c.results
		if res.err != nil {
			c.err = res.err
			return 0, c.err
		}
		c.buf[res.seq] = res.rows
	}
	return n, nil
}

// closeCore stops the pool: workers quit at their next claim, and the wait
// guarantees no goroutine touches the catalog after Close returns.
func (c *exchangeCore) closeCore() {
	if c.closed || !c.launched {
		c.closed = true
		return
	}
	c.closed = true
	c.stop.Store(true)
	c.wg.Wait()
}

// workerStats returns the per-worker counters. Valid once the operator is
// fully drained (eager Open) or closed — both paths wg.Wait first.
func (c *exchangeCore) workerStats() []WorkerStat {
	out := make([]WorkerStat, len(c.wstats))
	copy(out, c.wstats)
	return out
}

// chunkOIDs splits an OID list into tasks of at least per OIDs, preserving
// order and extending each task to the end of the page run it lands in.
// The lists arrive sorted, so page alignment means no two tasks fetch the
// same page — without it, neighboring workers serialize on the buffer
// pool's per-page load latch instead of overlapping their reads.
func chunkOIDs(oids []storage.OID, per int) [][]storage.OID {
	if per < 1 {
		per = 1
	}
	var chunks [][]storage.OID
	for off := 0; off < len(oids); {
		end := off + per
		if end >= len(oids) {
			end = len(oids)
		} else {
			for end < len(oids) && oids[end]>>16 == oids[end-1]>>16 {
				end++
			}
		}
		chunks = append(chunks, oids[off:end])
		off = end
	}
	return chunks
}
