package exec

import (
	"fmt"
	"strings"
	"time"

	"mood/internal/algebra"
	"mood/internal/optimizer"
)

// EXPLAIN ANALYZE instrumentation: every operator is wrapped with a stats
// shim that accumulates, per Open/NextBatch/Close call, the simulated page
// reads and wall time spent inside it — children included, since their
// calls nest within the parent's. The per-operator ("self") figures fall
// out at report time as a node's cumulative total minus its direct
// children's. The wrappers exist only on the analyzed pipeline; plain
// Execute pays no instrumentation cost.
//
// With the object cache and prefetcher on, the same delta scheme attributes
// cache hits/misses and readahead page loads per operator. Cache hits do
// not touch the disk, so the pages figures still equal the simulated read
// delta; readahead loads that land between operator calls are settled by
// ExecuteAnalyzed's quiesce step, which charges them to the root.

// opStats accumulates one operator's cumulative counters.
type opStats struct {
	rowsOut    int64
	batches    int64
	pages      int64
	hits       int64
	misses     int64
	prefetched int64
	crefs      int64
	cpages     int64
	elapsed    time.Duration
}

// analyzeCtx supplies the counter sources to every stats wrapper of one
// analyzed execution. The cache/prefetch funcs are never nil (zero stubs
// stand in when the feature is off); the On flags gate rendering.
type analyzeCtx struct {
	pages      func() int64
	hits       func() int64
	misses     func() int64
	prefetched func() int64
	crefs      func() int64
	cpages     func() int64
	cacheOn    bool
	prefetchOn bool
	clusterOn  bool
}

// snap is one instant of every counter source.
type snap struct {
	p, h, m, f, cr, cp int64
}

func (an *analyzeCtx) snapshot() snap {
	return snap{an.pages(), an.hits(), an.misses(), an.prefetched(), an.crefs(), an.cpages()}
}

// statsOp wraps an operator, charging pages, cache activity, and wall time
// spent inside its calls (nested child calls included) to st.
type statsOp struct {
	inner Operator
	an    *analyzeCtx
	st    *opStats
}

func (s *statsOp) settle(start time.Time, s0 snap) {
	s1 := s.an.snapshot()
	s.st.pages += s1.p - s0.p
	s.st.hits += s1.h - s0.h
	s.st.misses += s1.m - s0.m
	s.st.prefetched += s1.f - s0.f
	s.st.crefs += s1.cr - s0.cr
	s.st.cpages += s1.cp - s0.cp
	s.st.elapsed += time.Since(start)
}

func (s *statsOp) Open() error {
	start := time.Now()
	s0 := s.an.snapshot()
	err := s.inner.Open()
	s.settle(start, s0)
	return err
}

// NextBatch passes the consumer's batch through unchanged, so EXPLAIN
// ANALYZE measures the same execution plain Execute runs.
func (s *statsOp) NextBatch(b *RowBatch) (int, error) {
	start := time.Now()
	s0 := s.an.snapshot()
	n, err := s.inner.NextBatch(b)
	s.settle(start, s0)
	s.st.rowsOut += int64(n)
	if n > 0 {
		s.st.batches++
	}
	return n, err
}

func (s *statsOp) Close() error {
	start := time.Now()
	s0 := s.an.snapshot()
	err := s.inner.Close()
	s.settle(start, s0)
	return err
}

// OpReport is one node of the EXPLAIN ANALYZE tree.
type OpReport struct {
	Plan    optimizer.Plan
	RowsIn  int64 // sum of the direct children's rows out
	RowsOut int64
	// Batches counts the non-empty NextBatch calls observed at this
	// operator; zero for an operator that produced no rows.
	Batches int64
	// CompiledSet marks operators that participate in predicate/projection
	// compilation; Compiled then reports whether the expression fully
	// lowered to a fused closure (false = interpreter fallback).
	CompiledSet bool
	Compiled    bool
	// Access names the physical access path a join operator ran
	// (forward/backward/joinindex/hash/fusion); empty for non-joins.
	Access string
	// Self figures exclude the children's cumulative shares; Cum figures
	// include them.
	SelfPages int64
	CumPages  int64
	// Object-cache hits/misses and readahead loads observed inside this
	// operator's calls. A hit skips the page fetch entirely, so hits never
	// contribute to the pages figures.
	SelfHits       int64
	CumHits        int64
	SelfMisses     int64
	CumMisses      int64
	SelfPrefetched int64
	CumPrefetched  int64
	// Decoded counts the records an extent scan unmarshalled in full:
	// cache misses that passed its compiled predicate, or every cache miss
	// when the predicate could not be checked before decoding. DecodedSet
	// marks the scans that report it.
	DecodedSet bool
	Decoded    int64
	// Clustering-tracer activity inside this operator's calls: references
	// resolved through batched fetches and the distinct (post-forwarding)
	// pages they landed on — pages/refs is the operator's measured locality.
	SelfClusterRefs  int64
	CumClusterRefs   int64
	SelfClusterPages int64
	CumClusterPages  int64
	SelfTime         time.Duration
	CumTime          time.Duration
	// Workers holds per-worker rows/pages for parallel (exchange) operators;
	// nil for serial nodes. Pages counts the fetches a worker issued, buffer
	// hits included, so the sum can exceed the node's simulated read delta.
	Workers []WorkerStat
	Kids    []*OpReport
}

// Analysis is the instrumented execution report of one EXPLAIN ANALYZE.
type Analysis struct {
	Root *OpReport
	// TotalPages is the root's cumulative simulated page reads; it matches
	// the DiskSim read-counter delta across the execution (readahead
	// included — ExecuteAnalyzed quiesces the prefetcher before the final
	// snapshot).
	TotalPages int64
	TotalTime  time.Duration
	// Cache totals across the execution; rendered only when the
	// corresponding feature flags are set.
	CacheHits       int64
	CacheMisses     int64
	Prefetched      int64
	CacheEnabled    bool
	PrefetchEnabled bool
	// Clustering totals (rendered as clustered=refs/pages when tracing is
	// on): references resolved through batched fetches and distinct target
	// pages. After a successful reorganization the pages figure drops for
	// the same refs figure.
	ClusterRefs    int64
	ClusterPages   int64
	ClusterEnabled bool
	// ShardPages holds each shard's simulated read delta across the
	// execution (nil on a single-store database). Both it and TotalPages
	// are measured over the same post-quiesce window, so the invariant
	// TotalPages == Σ ShardPages holds exactly.
	ShardPages []int64
	// Plan-cache counters (lifetime totals of the session's cache, not
	// per-query): rendered as plancache=hits/misses when the cache is on.
	PlanCacheEnabled bool
	PlanCacheHits    int64
	PlanCacheMisses  int64
}

// ExecuteAnalyzed runs a plan through the streaming pipeline with
// per-operator instrumentation, returning both the result collection and
// the analysis tree. Page attribution requires the Executor's Pages hook;
// without it page counts report as zero.
func (e *Executor) ExecuteAnalyzed(p optimizer.Plan) (*algebra.Collection, *Analysis, error) {
	zero := func() int64 { return 0 }
	an := &analyzeCtx{
		pages: e.Pages, hits: e.CacheHits, misses: e.CacheMisses, prefetched: e.Prefetched,
		crefs: e.ClusterRefs, cpages: e.ClusterPages,
		cacheOn:    e.CacheHits != nil,
		prefetchOn: e.Prefetched != nil,
		clusterOn:  e.ClusterRefs != nil && e.ClusterPages != nil,
	}
	if an.pages == nil {
		an.pages = zero
	}
	if an.hits == nil {
		an.hits = zero
	}
	if an.misses == nil {
		an.misses = zero
	}
	if an.prefetched == nil {
		an.prefetched = zero
	}
	if an.crefs == nil {
		an.crefs = zero
	}
	if an.cpages == nil {
		an.cpages = zero
	}
	root, err := e.compile(p, an)
	if err != nil {
		return nil, nil, err
	}
	p0 := an.pages()
	var s0 []int64
	if e.ShardPages != nil {
		s0 = e.ShardPages()
	}
	coll, err := root.drain()
	if err != nil {
		return nil, nil, err
	}
	if e.Quiesce != nil {
		// Readahead loads can land between operator calls, outside every
		// stats window. Wait for the in-flight ones, then charge the
		// shortfall to the root so TotalPages == disk read delta holds.
		e.Quiesce()
	}
	if delta := an.pages() - p0; delta > root.stats.pages {
		root.stats.pages = delta
	}
	var shardPages []int64
	if len(s0) > 1 {
		s1 := e.ShardPages()
		shardPages = make([]int64, len(s1))
		for i := range s1 {
			shardPages[i] = s1[i] - s0[i]
		}
	}
	rep := buildReport(root)
	return coll, &Analysis{
		Root: rep, TotalPages: rep.CumPages, TotalTime: rep.CumTime,
		CacheHits: rep.CumHits, CacheMisses: rep.CumMisses, Prefetched: rep.CumPrefetched,
		CacheEnabled: an.cacheOn, PrefetchEnabled: an.prefetchOn,
		ClusterRefs: rep.CumClusterRefs, ClusterPages: rep.CumClusterPages,
		ClusterEnabled: an.clusterOn,
		ShardPages:     shardPages,
	}, nil
}

// predicateCompiled is implemented by operators that take part in
// predicate/projection compilation; active says the operator looked the
// expression up in the query registry, full says the lookup produced a
// fused closure rather than the interpreter fallback.
type predicateCompiled interface {
	compiledPredicate() (active, full bool)
}

// decodeCounter is implemented by the extent scan, which counts the records
// it unmarshals (object.Unmarshals is process-wide, so a delta of it would
// mix in concurrent queries and the predicate's own dereferences).
type decodeCounter interface {
	decodedRecords() int64
}

// accessPather is implemented by the join operators; the returned tag names
// the physical access path in the EXPLAIN ANALYZE report.
type accessPather interface {
	accessPath() string
}

func buildReport(c *compiled) *OpReport {
	r := &OpReport{
		Plan:            c.plan,
		RowsOut:         c.stats.rowsOut,
		Batches:         c.stats.batches,
		CumPages:        c.stats.pages,
		CumHits:         c.stats.hits,
		CumMisses:       c.stats.misses,
		CumPrefetched:   c.stats.prefetched,
		CumClusterRefs:  c.stats.crefs,
		CumClusterPages: c.stats.cpages,
		CumTime:         c.stats.elapsed,
	}
	raw := c.raw
	if x, ok := raw.(*exchangeOp); ok {
		// An exchange reports its workers plus the annotations of the
		// operator whose tasks it scheduled.
		r.Workers = x.workerStats()
		raw = x.src
	}
	if pc, ok := raw.(predicateCompiled); ok {
		if active, full := pc.compiledPredicate(); active {
			r.CompiledSet = true
			r.Compiled = full
		}
	}
	if ap, ok := raw.(accessPather); ok {
		r.Access = ap.accessPath()
	}
	if dc, ok := raw.(decodeCounter); ok {
		r.DecodedSet, r.Decoded = true, dc.decodedRecords()
	}
	var kidPages, kidHits, kidMisses, kidPrefetched, kidCRefs, kidCPages int64
	var kidTime time.Duration
	for _, k := range c.kids {
		kr := buildReport(k)
		r.Kids = append(r.Kids, kr)
		r.RowsIn += kr.RowsOut
		kidPages += kr.CumPages
		kidHits += kr.CumHits
		kidMisses += kr.CumMisses
		kidPrefetched += kr.CumPrefetched
		kidCRefs += kr.CumClusterRefs
		kidCPages += kr.CumClusterPages
		kidTime += kr.CumTime
	}
	clamp := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		return v
	}
	r.SelfPages = clamp(r.CumPages - kidPages)
	r.SelfHits = clamp(r.CumHits - kidHits)
	r.SelfMisses = clamp(r.CumMisses - kidMisses)
	r.SelfPrefetched = clamp(r.CumPrefetched - kidPrefetched)
	r.SelfClusterRefs = clamp(r.CumClusterRefs - kidCRefs)
	r.SelfClusterPages = clamp(r.CumClusterPages - kidCPages)
	r.SelfTime = r.CumTime - kidTime
	if r.SelfTime < 0 {
		r.SelfTime = 0
	}
	return r
}

// Render formats the analysis as the plan tree annotated with per-operator
// rows, simulated page reads, cache activity (when the cache is on), and
// wall time.
func (a *Analysis) Render() string {
	var sb strings.Builder
	renderReport(&sb, a.Root, "", a.CacheEnabled, a.PrefetchEnabled, a.ClusterEnabled)
	sb.WriteString("total: pages=" + fmt.Sprint(a.TotalPages))
	if len(a.ShardPages) > 1 {
		sb.WriteString(" shards=[")
		for i, p := range a.ShardPages {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", p)
		}
		sb.WriteByte(']')
	}
	if a.CacheEnabled {
		fmt.Fprintf(&sb, " cache=%d/%d", a.CacheHits, a.CacheMisses)
	}
	if a.PrefetchEnabled {
		fmt.Fprintf(&sb, " prefetched=%d", a.Prefetched)
	}
	if a.ClusterEnabled {
		fmt.Fprintf(&sb, " clustered=%d/%d", a.ClusterRefs, a.ClusterPages)
	}
	if a.PlanCacheEnabled {
		fmt.Fprintf(&sb, " plancache=%d/%d", a.PlanCacheHits, a.PlanCacheMisses)
	}
	fmt.Fprintf(&sb, " time=%s\n", fmtDur(a.TotalTime))
	return sb.String()
}

func renderReport(sb *strings.Builder, r *OpReport, indent string, cacheOn, prefetchOn, clusterOn bool) {
	extra := ""
	if r.Access != "" {
		extra += " access=" + r.Access
	}
	if cacheOn {
		extra += fmt.Sprintf(" cache=%d/%d", r.SelfHits, r.SelfMisses)
	}
	if r.DecodedSet {
		extra += fmt.Sprintf(" decoded=%d", r.Decoded)
	}
	if prefetchOn {
		extra += fmt.Sprintf(" prefetched=%d", r.SelfPrefetched)
	}
	if clusterOn && r.SelfClusterRefs > 0 {
		extra += fmt.Sprintf(" clustered=%d/%d", r.SelfClusterRefs, r.SelfClusterPages)
	}
	if r.Batches > 0 {
		extra += fmt.Sprintf(" batches=%d rows/batch=%.1f",
			r.Batches, float64(r.RowsOut)/float64(r.Batches))
	}
	if r.CompiledSet {
		extra += fmt.Sprintf(" compiled=%t", r.Compiled)
	}
	if len(r.Kids) == 0 {
		fmt.Fprintf(sb, "%s%s  (rows=%d pages=%d%s time=%s)\n",
			indent, optimizer.Describe(r.Plan), r.RowsOut, r.SelfPages, extra, fmtDur(r.SelfTime))
	} else {
		fmt.Fprintf(sb, "%s%s  (rows in=%d out=%d pages=%d%s time=%s)\n",
			indent, optimizer.Describe(r.Plan), r.RowsIn, r.RowsOut, r.SelfPages, extra, fmtDur(r.SelfTime))
	}
	for i, w := range r.Workers {
		fmt.Fprintf(sb, "%s  [worker %d] rows=%d pages=%d\n", indent, i, w.Rows, w.Pages)
	}
	for _, k := range r.Kids {
		renderReport(sb, k, indent+"  ", cacheOn, prefetchOn, clusterOn)
	}
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
