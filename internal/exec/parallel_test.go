package exec

import (
	"fmt"
	"strings"
	"testing"

	"mood/internal/cost"
	"mood/internal/optimizer"
	"mood/internal/sql"
)

// parallelQueries are plan shapes covering every exchangeable operator:
// bare extent scan, scan with fused selection, index selection (over the
// indexed fixture), hash-join chains, and pipeline breakers
// (group/sort/dup-elim) fed by exchanges.
var parallelQueries = []string{
	`SELECT v FROM Vehicle v`,
	`SELECT v FROM Vehicle v WHERE v.weight > 1200`,
	`SELECT v FROM Vehicle v WHERE v.id < 100 AND v.weight BETWEEN 900 AND 2400`,
	`SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2`,
	`SELECT v FROM Vehicle v WHERE v.drivetrain.transmission = 'MANUAL' ORDER BY v.weight DESC`,
	`SELECT c FROM Company c WHERE c.location = 'Tokyo'`,
	`SELECT v FROM Vehicle v WHERE v.weight BETWEEN 1200 AND 1220`,
}

// parallelizedPlan runs the fixture's optimizer, then rewrites the plan for
// four workers with no page threshold so every exchangeable shape exchanges.
func (f *fixture) parallelizedPlan(t *testing.T, query string) (optimizer.Plan, optimizer.Plan) {
	t.Helper()
	st, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %s: %v", query, err)
	}
	plan, _, err := f.opt.Optimize(st.(*sql.Select))
	if err != nil {
		t.Fatalf("optimize %s: %v", query, err)
	}
	pplan := optimizer.Parallelize(plan, 4, -1, f.opt.Stats)
	return plan, pplan
}

// TestParallelStreamingMatchesSerial holds the three execution paths equal
// on the same logical plan: serial streaming, parallel streaming (the
// Parallelize rewrite of the identical plan), and the materialized reference
// path over the parallel plan. Row values and row order must all agree. An
// exchange runs the serial operator's own code, so EXPLAIN ANALYZE must
// annotate both plans with the same compiled= marks, node for node.
func TestParallelStreamingMatchesSerial(t *testing.T) {
	exchanged := map[string]int{}
	for _, f := range []*fixture{defaultFixture(t), indexedFixture(t)} {
		for _, q := range parallelQueries {
			f.checkParallelMatchesSerial(t, q, exchanged)
		}
	}
	for _, shape := range []string{"scan", "select", "indsel", "hashjoin"} {
		if exchanged[shape] == 0 {
			t.Errorf("no query exchanged a %s; that exchange path was never exercised", shape)
		}
	}
}

// checkParallelMatchesSerial runs one query serially, through its
// Parallelize rewrite and materialized, tallying the rewrite's exchanges.
func (f *fixture) checkParallelMatchesSerial(t *testing.T, q string, exchanged map[string]int) {
	t.Helper()
	plan, pplan := f.parallelizedPlan(t, q)
	countExchanged(pplan, exchanged)
	serial, err := f.ex.Execute(plan)
	if err != nil {
		t.Fatalf("serial execute %s: %v", q, err)
	}
	par, err := f.ex.Execute(pplan)
	if err != nil {
		t.Fatalf("parallel execute %s: %v\nplan:\n%s", q, err, optimizer.Render(pplan))
	}
	assertCollectionsEqual(t, "parallel vs serial: "+q, par, serial)
	mat, err := f.ex.ExecuteMaterialized(pplan)
	if err != nil {
		t.Fatalf("materialized execute %s: %v", q, err)
	}
	assertCollectionsEqual(t, "parallel vs materialized: "+q, par, mat)

	sColl, sAn, err := f.ex.ExecuteAnalyzed(plan)
	if err != nil {
		t.Fatalf("serial analyze %s: %v", q, err)
	}
	pColl, pAn, err := f.ex.ExecuteAnalyzed(pplan)
	if err != nil {
		t.Fatalf("parallel analyze %s: %v", q, err)
	}
	assertCollectionsEqual(t, "analyzed parallel vs serial: "+q, pColl, sColl)
	if s, p := compiledMarks(sAn.Root), compiledMarks(pAn.Root); s != p {
		t.Errorf("%s: compiled= marks differ\nserial:   %s\nparallel: %s\n%s", q, s, p, pAn.Render())
	}
}

// countExchanged tallies a plan's exchanges by the shape of their input.
func countExchanged(p optimizer.Plan, into map[string]int) {
	if ex, ok := p.(*optimizer.ExchangePlan); ok {
		switch in := ex.Input.(type) {
		case *optimizer.BindPlan:
			into["scan"]++
		case *optimizer.SelectPlan:
			into["select"]++
		case *optimizer.IndSelPlan:
			into["indsel"]++
		case *optimizer.JoinPlan:
			if in.Method == cost.HashPartition {
				into["hashjoin"]++
			}
		}
	}
	for _, k := range optimizer.Children(p) {
		countExchanged(k, into)
	}
}

// compiledMarks renders a report tree's compiled= annotations in pre-order,
// one entry per node ("-" where a node has none).
func compiledMarks(r *OpReport) string {
	mark := "-"
	if r.CompiledSet {
		mark = fmt.Sprintf("compiled=%t", r.Compiled)
	}
	for _, k := range r.Kids {
		mark += " " + compiledMarks(k)
	}
	return mark
}

// TestExchangeOverNonHashJoinRunsSerial: only scans, index selections and
// hash joins split into tasks. An exchange over any other join compiles to
// the serial join operator itself — no worker stats, the join's own access
// path — and yields the serial rows.
func TestExchangeOverNonHashJoinRunsSerial(t *testing.T) {
	f := defaultFixture(t)
	forward := cost.ForwardTraversal
	f.opt.ForceJoinMethod = &forward
	defer func() { f.opt.ForceJoinMethod = nil }()
	plan, _ := f.parallelizedPlan(t, `SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2`)
	join := findJoin(plan)
	if join == nil || join.Method != cost.ForwardTraversal {
		t.Fatalf("no forward join in:\n%s", optimizer.Render(plan))
	}
	serial, err := f.ex.Execute(join)
	if err != nil {
		t.Fatal(err)
	}
	par, an, err := f.ex.ExecuteAnalyzed(&optimizer.ExchangePlan{Input: join, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertCollectionsEqual(t, "exchange over forward join", par, serial)
	if an.Root.Plan != optimizer.Plan(join) || an.Root.Workers != nil || an.Root.Access != "forward" {
		t.Errorf("exchange over a forward join did not compile to the serial join:\n%s", an.Render())
	}
}

// findJoin returns the first join of a plan in pre-order, nil if none.
func findJoin(p optimizer.Plan) *optimizer.JoinPlan {
	if j, ok := p.(*optimizer.JoinPlan); ok {
		return j
	}
	for _, k := range optimizer.Children(p) {
		if j := findJoin(k); j != nil {
			return j
		}
	}
	return nil
}

// TestParallelEarlyClose stops a parallel pipeline after a handful of rows:
// Close must terminate the worker pool without leaking goroutines or pinned
// pages, and further Next calls are not required to work.
func TestParallelEarlyClose(t *testing.T) {
	f := defaultFixture(t)
	_, pplan := f.parallelizedPlan(t, `SELECT v FROM Vehicle v`)
	op, err := f.ex.Compile(pplan)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := op.Next(); err != nil || !ok {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if n := f.pool.PinnedPages(); n != 0 {
		t.Errorf("early-closed parallel pipeline left %d pages pinned", n)
	}
}

// TestParallelExplainAnalyzeWorkerStats checks EXPLAIN ANALYZE on a parallel
// plan: the page total still equals the simulated-disk read delta (workers
// drain eagerly inside the instrumented Open), the exchange node reports one
// stat per worker, and the per-worker rows sum to the node's row count.
func TestParallelExplainAnalyzeWorkerStats(t *testing.T) {
	f := defaultFixture(t)
	f.ex.Pages = func() int64 { return f.pool.Disk().Stats().Reads() }
	defer func() { f.ex.Pages = nil }()

	_, pplan := f.parallelizedPlan(t, `SELECT v FROM Vehicle v WHERE v.weight > 1200`)
	if !strings.Contains(optimizer.Render(pplan), "EXCHANGE(") {
		t.Fatalf("expected an EXCHANGE node in:\n%s", optimizer.Render(pplan))
	}
	if err := f.pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	scope := f.pool.Disk().Scope()
	coll, an, err := f.ex.ExecuteAnalyzed(pplan)
	if err != nil {
		t.Fatal(err)
	}
	delta := scope.Delta()
	if an.TotalPages != delta.Reads() {
		t.Errorf("analysis reports %d pages, DiskSim delta is %d", an.TotalPages, delta.Reads())
	}
	if an.TotalPages == 0 {
		t.Error("parallel plan read zero pages from a cold pool")
	}

	var exch *OpReport
	var walk func(r *OpReport)
	walk = func(r *OpReport) {
		if len(r.Workers) > 0 {
			exch = r
		}
		for _, k := range r.Kids {
			walk(k)
		}
	}
	walk(an.Root)
	if exch == nil {
		t.Fatalf("no report node carries worker stats:\n%s", an.Render())
	}
	if len(exch.Workers) > 4 {
		t.Errorf("exchange reports %d workers, plan asked for 4", len(exch.Workers))
	}
	var rows int64
	for _, w := range exch.Workers {
		rows += w.Rows
	}
	if rows != exch.RowsOut {
		t.Errorf("per-worker rows sum to %d, node emitted %d", rows, exch.RowsOut)
	}
	if len(coll.Rows) == 0 {
		t.Error("analyzed parallel query returned no rows")
	}
	if !strings.Contains(an.Render(), "[worker ") {
		t.Errorf("render lacks worker annotations:\n%s", an.Render())
	}

	// The analyzed result must equal the plain parallel execution.
	again, err := f.ex.Execute(pplan)
	if err != nil {
		t.Fatal(err)
	}
	assertCollectionsEqual(t, "analyzed vs plain parallel", coll, again)
}

// TestParallelWorkerCountFallback: an ExchangePlan with Workers <= 0 still
// executes (GOMAXPROCS fallback) and matches the serial rows.
func TestParallelWorkerCountFallback(t *testing.T) {
	f := defaultFixture(t)
	plan, _ := f.parallelizedPlan(t, `SELECT v FROM Vehicle v WHERE v.weight > 1200`)
	serial, err := f.ex.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	pplan := optimizer.Parallelize(plan, 2, -1, f.opt.Stats)
	forceZeroWorkers(pplan)
	par, err := f.ex.Execute(pplan)
	if err != nil {
		t.Fatal(err)
	}
	assertCollectionsEqual(t, "gomaxprocs fallback", par, serial)
}

func forceZeroWorkers(p optimizer.Plan) {
	if ex, ok := p.(*optimizer.ExchangePlan); ok {
		ex.Workers = 0
	}
	for _, k := range optimizer.Children(p) {
		forceZeroWorkers(k)
	}
}
