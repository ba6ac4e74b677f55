package exec

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/funcmgr"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/storage"
)

// This file is the morsel-driven parallel execution path: the physical
// operators compiled from an optimizer.ExchangePlan. An exchange fans its
// input's work units — page-range morsels for extent scans, OID chunks for
// index selections and hash-join probes — out to a bounded pool of worker
// goroutines and merges the per-task row batches back into one stream in
// task order. Tasks are numbered in the exact order the serial operator
// would produce their rows and workers claim tasks through a shared atomic
// counter (claim order = task order), so the merged stream is byte-identical
// to the serial one and out-of-order buffering stays bounded by the worker
// count.
//
// On the simulated disk the win is latency hiding, not CPU parallelism:
// with DiskSim latency emulation enabled, concurrent workers overlap their
// per-page sleeps, so wall-clock time shrinks. Simulated time must not move
// with the schedule, yet a disk prices each read by the read before it
// (sequential or a new positioning). So every operator names each task's
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

// workerStatser is implemented by the exchange operators; EXPLAIN ANALYZE
// uses it to annotate a parallel node with per-worker figures.
type workerStatser interface {
	WorkerStats() []WorkerStat
}

type taskResult struct {
	seq  int
	rows []algebra.Row
	err  error
}

// exchangeCore schedules numbered tasks across worker goroutines and merges
// their row batches back in task order. In eager mode (EXPLAIN ANALYZE) the
// whole fan-out runs inside start, so the stats wrapper's page delta around
// Open captures the operator's full footprint exactly; in lazy mode workers
// produce in the background while the consumer pulls.
type exchangeCore struct {
	workers int
	eager   bool

	ntasks    int
	newWorker func(ws *WorkerStat) func(task int) ([]algebra.Row, error)
	preload   func(task int, p *storage.Preload) error // pins one task's pages
	claimMu   sync.Mutex                               // serializes claim + preload
	next      int                                      // next task to claim; guarded by claimMu
	stop      atomic.Bool
	results   chan taskResult
	wg        sync.WaitGroup
	wstats    []WorkerStat

	buf      map[int][]algebra.Row // completed tasks awaiting their turn
	seq      int                   // next task to emit
	cur      []algebra.Row
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

// start registers the task set. preload pins a task's pages into the given
// Preload (see claim). newWorker is called once per worker and
// returns the worker's task function, so per-worker state (each worker's
// RowEvaluator — evaluators reuse one expression environment and are not
// shareable across goroutines) is created exactly once. In eager mode the
// pool launches and drains immediately, inside the caller's Open; in lazy
// mode launch is deferred to the first NextBatch, so no work happens before the
// consumer demands a row (and instrumentation around Open measures only the
// serial setup: morsel discovery, index probes, join builds).
func (c *exchangeCore) start(ntasks int, preload func(task int, p *storage.Preload) error,
	newWorker func(ws *WorkerStat) func(task int) ([]algebra.Row, error)) error {
	c.ntasks = ntasks
	c.preload = preload
	c.newWorker = newWorker
	c.buf = make(map[int][]algebra.Row)
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
	c.results = make(chan taskResult, c.ntasks)
	nw := c.workers
	if nw < 1 {
		nw = 1
	}
	if nw > c.ntasks {
		nw = c.ntasks
	}
	c.wstats = make([]WorkerStat, nw)
	for w := 0; w < nw; w++ {
		run := c.newWorker(&c.wstats[w])
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			var pl storage.Preload
			for !c.stop.Load() {
				t, err := c.claim(&pl)
				if t >= c.ntasks {
					return
				}
				var rows []algebra.Row
				if err == nil {
					pl.Wait()
					rows, err = run(t)
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

// claim takes the next task number and pins that task's pages into p before the claim lock drops. Disk reads are therefore
// charged task by task in task order whatever the goroutine schedule, and
// simulated time — whose random/sequential split depends on read order —
// equals a one-worker run's. Reads a task makes beyond the pages it names
// (overflow chains, references chased by a predicate) are charged when the
// task makes them. Returns ntasks when none are left.
func (c *exchangeCore) claim(p *storage.Preload) (int, error) {
	c.claimMu.Lock()
	defer c.claimMu.Unlock()
	t := c.next
	if t >= c.ntasks {
		return t, nil
	}
	c.next++
	return t, c.preload(t, p)
}

// drainEager collects every task's result before returning, so an analyzed
// exchange does all its work (and all its page reads) inside Open.
func (c *exchangeCore) drainEager() error {
	for got := 0; got < c.ntasks; got++ {
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
	n := 0
	for n < len(b.Rows) {
		if c.err != nil {
			return 0, c.err
		}
		if c.ci < len(c.cur) {
			take := copy(b.Rows[n:], c.cur[c.ci:])
			n += take
			c.ci += take
			continue
		}
		if c.seq >= c.ntasks {
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

// --- parallel operators ---------------------------------------------------

// exchangeScanOp is the parallel extent scan, optionally with a fused
// selection: workers read disjoint page-range morsels and evaluate the
// predicate on their own rows with a per-worker evaluator.
type exchangeScanOp struct {
	core    exchangeCore
	alg     *algebra.Algebra
	class   string
	varName string
	minus   []string
	closure bool
	pred    expr.Expr // nil for a bare BIND
	funcs   *funcmgr.QueryRegistry
	predFn  expr.PredFn // self-mode compiled predicate, shared read-only by workers; nil → interpret
}

func (o *exchangeScanOp) Open() error {
	morsels, err := o.alg.Cat.ExtentMorsels(o.class, o.minus, o.closure, exchangeMorselPages)
	if err != nil {
		return err
	}
	if o.pred != nil {
		o.predFn, _ = o.funcs.Predicate(o.varName, o.pred)
	}
	resolve := o.alg.Cat.Resolver()
	preload := func(t int, p *storage.Preload) error { return o.alg.Cat.PreloadMorsel(p, &morsels[t]) }
	return o.core.start(len(morsels), preload, func(ws *WorkerStat) func(int) ([]algebra.Row, error) {
		re := o.alg.NewRowEvaluator()
		return func(t int) ([]algebra.Row, error) {
			m := &morsels[t]
			// Fused + compiled: push the predicate into the morsel's
			// page-decode loop, as in the serial scanSelectOp — rejected
			// objects are never copied out of the page/cache.
			var filter func(oid storage.OID, v *object.Value) (bool, error)
			if o.predFn != nil {
				filter = func(oid storage.OID, v *object.Value) (bool, error) {
					return o.predFn(v, oid, resolve)
				}
			}
			objs, err := o.alg.Cat.ReadMorselFiltered(m, filter)
			if err != nil {
				return nil, err
			}
			ws.Pages += int64(len(m.Pages))
			rows := make([]algebra.Row, 0, len(objs))
			for i := range objs {
				so := &objs[i]
				row := algebra.Row{Vars: map[string]algebra.Bound{o.varName: {OID: so.OID, Val: so.Val}}}
				if o.pred != nil && o.predFn == nil {
					keep, err := re.EvalBool(row, o.pred)
					if err != nil {
						return nil, err
					}
					if !keep {
						continue
					}
				}
				rows = append(rows, row)
			}
			ws.Rows += int64(len(rows))
			return rows, nil
		}
	})
}

func (o *exchangeScanOp) NextBatch(b *RowBatch) (int, error) { return o.core.nextBatch(b) }
func (o *exchangeScanOp) Close() error                       { o.core.closeCore(); return nil }
func (o *exchangeScanOp) WorkerStats() []WorkerStat          { return o.core.workerStats() }

func (o *exchangeScanOp) compiledPredicate() (active, full bool) {
	return o.pred != nil, o.predFn != nil
}

// exchangeIndSelOp is the parallel index selection: the index probe runs
// serially at Open (it is a handful of index-page touches), then workers
// dereference disjoint OID chunks and re-check the predicate.
type exchangeIndSelOp struct {
	core      exchangeCore
	alg       *algebra.Algebra
	class     string
	varName   string
	indexKind catalog.IndexKind
	pred      algebra.SimplePredicate
}

func (o *exchangeIndSelOp) Open() error {
	oids, err := o.alg.IndSelCandidates(o.class, o.indexKind, o.pred)
	if err != nil {
		return err
	}
	recheck := o.alg.RecheckExpr(o.varName, o.pred)
	chunks := chunkOIDs(oids, exchangeOIDChunk)
	preload := func(t int, p *storage.Preload) error { return o.alg.Cat.PreloadObjects(p, chunks[t]) }
	return o.core.start(len(chunks), preload, func(ws *WorkerStat) func(int) ([]algebra.Row, error) {
		re := o.alg.NewRowEvaluator()
		return func(t int) ([]algebra.Row, error) {
			// One page-ordered batch fetch per chunk: the chunk's OIDs
			// arrive sorted and page-aligned, so the whole chunk resolves
			// with one pin per page instead of one random Get per OID.
			vals, _, err := o.alg.Cat.GetObjects(chunks[t])
			if err != nil {
				return nil, err
			}
			ws.Pages += int64(len(chunks[t]))
			var rows []algebra.Row
			for i, oid := range chunks[t] {
				row := algebra.Row{Vars: map[string]algebra.Bound{o.varName: {OID: oid, Val: vals[i]}}}
				ok, err := re.EvalBool(row, recheck)
				if err != nil {
					return nil, err
				}
				if ok {
					// Match IndSel: emitted rows carry the identifier only.
					rows = append(rows, algebra.Row{Vars: map[string]algebra.Bound{o.varName: {OID: oid}}})
				}
			}
			ws.Rows += int64(len(rows))
			return rows, nil
		}
	})
}

func (o *exchangeIndSelOp) NextBatch(b *RowBatch) (int, error) { return o.core.nextBatch(b) }
func (o *exchangeIndSelOp) Close() error                       { o.core.closeCore(); return nil }
func (o *exchangeIndSelOp) WorkerStats() []WorkerStat          { return o.core.workerStats() }

// exchangeHashJoinOp parallelizes the hash-partition join's probe phase.
// The build runs once, serially, exactly as in hashJoinOp.Open: both inputs
// drain, the left rows partition on the pointer field, and the distinct
// referenced OIDs sort. Workers then dereference disjoint sorted-order ref
// chunks against the shared read-only partition and right-side maps.
type exchangeHashJoinOp struct {
	core        exchangeCore
	alg         *algebra.Algebra
	left, right *compiled
	leftVar     string
	attr        string
	rightVar    string
}

func (o *exchangeHashJoinOp) Open() error {
	lc, err := o.left.drain()
	if err != nil {
		return err
	}
	rc, err := o.right.drain()
	if err != nil {
		return err
	}
	rightBy := algebra.RowsByOID(rc, o.rightVar)
	partitions, err := partitionByRef(o.alg, lc, o.leftVar, o.attr)
	if err != nil {
		return err
	}
	refs := make([]storage.OID, 0, len(partitions))
	for ref := range partitions {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	// Only refs the right side holds are dereferenced (as in the serial
	// probe); each chunk's survivors resolve through one page-ordered batch
	// fetch.
	chunks := chunkOIDs(refs, exchangeOIDChunk)
	for i, chunk := range chunks {
		hits := make([]storage.OID, 0, len(chunk))
		for _, ref := range chunk {
			if _, hit := rightBy[ref]; hit {
				hits = append(hits, ref)
			}
		}
		chunks[i] = hits
	}
	preload := func(t int, p *storage.Preload) error { return o.alg.Cat.PreloadObjects(p, chunks[t]) }
	return o.core.start(len(chunks), preload, func(ws *WorkerStat) func(int) ([]algebra.Row, error) {
		return func(t int) ([]algebra.Row, error) {
			hits := chunks[t]
			vals, _, err := o.alg.Cat.GetObjects(hits)
			if err != nil {
				return nil, err
			}
			ws.Pages += int64(len(hits))
			var rows []algebra.Row
			for i, ref := range hits {
				val := vals[i]
				for _, lrow := range partitions[ref] {
					for _, rrow := range rightBy[ref] {
						merged := lrow.Merged(rrow)
						rb := merged.Vars[o.rightVar]
						rb.Val = val
						merged.Vars[o.rightVar] = rb
						rows = append(rows, merged)
					}
				}
			}
			ws.Rows += int64(len(rows))
			return rows, nil
		}
	})
}

func (o *exchangeHashJoinOp) NextBatch(b *RowBatch) (int, error) { return o.core.nextBatch(b) }

func (o *exchangeHashJoinOp) Close() error {
	o.core.closeCore()
	err := o.left.op.Close()
	if err2 := o.right.op.Close(); err == nil {
		err = err2
	}
	return err
}

func (o *exchangeHashJoinOp) WorkerStats() []WorkerStat { return o.core.workerStats() }

func (o *exchangeHashJoinOp) accessPath() string { return "hash" }

// compileExchange lowers an ExchangePlan onto one of the parallel operators.
// The optimizer only wraps exchangeable shapes, but compilation double-checks
// and falls back to compiling the input serially for anything else, so an
// exchange can never change results — only scheduling.
func (e *Executor) compileExchange(c *compiled, n *optimizer.ExchangePlan, an *analyzeCtx) (*compiled, error) {
	workers := exchangeWorkers(n.Workers)
	eager := an != nil

	switch in := n.Input.(type) {
	case *optimizer.BindPlan:
		c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: in.Var, Class: in.Class}
		c.op = &exchangeScanOp{
			core: exchangeCore{workers: workers, eager: eager},
			alg:  e.Alg, class: in.Class, varName: in.Var,
			minus: in.Minus, closure: in.Every || len(in.Minus) > 0,
		}
		return c, nil

	case *optimizer.SelectPlan:
		bp, ok := in.Input.(*optimizer.BindPlan)
		if !ok {
			return e.compileNode(n.Input, an)
		}
		c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: bp.Var, Class: bp.Class}
		c.op = &exchangeScanOp{
			core: exchangeCore{workers: workers, eager: eager},
			alg:  e.Alg, class: bp.Class, varName: bp.Var,
			minus: bp.Minus, closure: bp.Every || len(bp.Minus) > 0,
			pred: in.Pred, funcs: e.queryFuncs(),
		}
		return c, nil

	case *optimizer.IndSelPlan:
		c.hdr = optimizer.Header{Kind: algebra.SetKind, Name: in.Var, Class: in.Class}
		c.op = &exchangeIndSelOp{
			core: exchangeCore{workers: workers, eager: eager},
			alg:  e.Alg, class: in.Class, varName: in.Var,
			indexKind: in.Index.Kind, pred: in.Pred,
		}
		return c, nil

	case *optimizer.JoinPlan:
		if in.Method != cost.HashPartition {
			return e.compileNode(n.Input, an)
		}
		left, err := e.compileNode(in.Left, an)
		if err != nil {
			return nil, err
		}
		c.kids = append(c.kids, left)
		right, err := e.compileNode(in.Right, an)
		if err != nil {
			return nil, err
		}
		c.kids = append(c.kids, right)
		c.hdr = optimizer.Header{
			Kind:  algebra.JoinKind(left.hdr.Kind, right.hdr.Kind),
			Name:  in.RightVar,
			Class: right.hdr.Class,
		}
		c.op = &exchangeHashJoinOp{
			core: exchangeCore{workers: workers, eager: eager},
			alg:  e.Alg, left: left, right: right,
			leftVar: in.LeftVar, attr: in.Attribute, rightVar: in.RightVar,
		}
		return c, nil
	}
	return e.compileNode(n.Input, an)
}
