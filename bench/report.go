package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json declares the same
// names and units; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd metrics come from the untraced run: what a user of the
// database sees.
//
// There is no median query latency. The shapes' latencies form separate
// modes, and the mix puts a mode boundary exactly at the 50th percentile
// (point 40% plus group 10%); on mixed-rw about half of all queries also
// pay a statistics re-collection. A median there flips between modes from
// run to run. Per-shape latencies are per-layer metrics instead: mixed-rw's
// single reader completes too few queries of each shape in one window for
// them to hold a bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_per_s", "1/s"},
	{"query_p95_ms", "ms"},
	{"op_per_s", "1/s"},
	{"live_heap_mb", "MiB"},
}

// perLayer metrics come from the traced run. Times are means per query or
// per transaction of the named spans; counts are window deltas of the
// engine's own counters divided by the operations that caused them. The
// query.* and txn.* metrics describe the root spans, whole operations.
var perLayer = []metricDef{
	{"query.point_mean_ms", "ms"},
	{"query.ex82_mean_ms", "ms"},
	{"query.ex81_mean_ms", "ms"},
	{"query.group_mean_ms", "ms"},
	{"query.scan_mean_ms", "ms"},
	{"txn.per_s", "1/s"},
	{"txn.p50_ms", "ms"},
	{"txn.p99_ms", "ms"},
	{"sql.parse_ms", "ms"},
	{"sql.parses_per_query", "count/query"},
	{"stats.collect_ms", "ms"},
	{"stats.collects_per_query", "count/query"},
	{"optimizer.optimize_ms", "ms"},
	{"exec.execute_ms", "ms"},
	{"exec.extract_ms", "ms"},
	{"exec.rows_per_query", "rows/query"},
	{"objcache.hit_rate", "ratio"},
	{"objcache.misses_per_query", "count/query"},
	{"object.unmarshals_per_query", "count/query"},
	{"storage.pool.hit_rate", "ratio"},
	{"storage.disk.reads_per_query", "count/query"},
	{"storage.disk.sim_ms_per_query", "ms"},
	{"storage.disk.writes_per_op", "count/op"},
	{"storage.disk.pages", "count"},
	{"kernel.tx_get_ms", "ms"},
	{"kernel.tx_update_ms", "ms"},
	{"kernel.tx_commit_ms", "ms"},
	{"kernel.mvcc.versions", "count"},
	{"lock.acquisitions_per_txn", "count/txn"},
	{"lock.waits_per_txn", "count/txn"},
	{"lock.deadlocks", "count"},
	{"wal.forces_per_txn", "count/txn"},
	{"wal.records_per_txn", "count/txn"},
	{"go.allocs_per_op", "count/op"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of sorted, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return ms(sorted[max(i, 0)])
}

// sortedLatencies gathers the latency lists pick chooses from every client,
// sorted.
func sortedLatencies(cs []*client, pick func(*client) [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, c := range cs {
		for _, l := range pick(c) {
			all = append(all, l...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report turns an outcome into the printed result: end-to-end metrics for
// an untraced run, per-layer metrics for a traced one.
func report(o *outcome, traced bool) result {
	res := result{Metrics: map[string]metric{}}
	var txns, rows int64
	var shapeN [numShapes]int64
	var shapeTime [numShapes]time.Duration
	for _, c := range o.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		for sh, l := range c.queryLat {
			shapeN[sh] += int64(len(l))
			for _, d := range l {
				shapeTime[sh] += d
			}
		}
		txns += int64(len(c.txnLat))
		rows += c.rows
	}
	if !o.sumsOK {
		res.Failed++
	}
	res.Correct = res.Failed == 0
	var queries int64
	for _, n := range shapeN {
		queries += n
	}
	ops := queries + txns
	secs := o.elapsed.Seconds()

	values := map[string]float64{}
	if !traced {
		qLat := sortedLatencies(o.clients, func(c *client) [][]time.Duration { return c.queryLat[:] })
		values["setup_s"] = o.setupS
		values["query_per_s"] = float64(queries) / secs
		values["query_p95_ms"] = percentile(qLat, 95)
		values["op_per_s"] = float64(ops) / secs
		values["live_heap_mb"] = float64(o.liveHeap) / (1 << 20)
	} else {
		// Span time per name, and root time per operation kind.
		var spanNs [numSpanNames]int64
		var spans int64
		for _, c := range o.clients {
			for _, s := range c.tr.spans {
				spanNs[s.name] += s.end - s.start
			}
			spans += int64(len(c.tr.spans))
		}
		nq, nt, d := float64(queries), float64(txns), o.delta
		perQuery := func(ns int64) float64 { return ratio(float64(ns)/1e6, nq) }
		perTxn := func(ns int64) float64 { return ratio(float64(ns)/1e6, nt) }
		var queryChildren int64
		for n := spanParse; n <= spanExtract; n++ {
			queryChildren += spanNs[n]
		}
		for sh := range shapeN {
			values["query."+shapeNames[sh]+"_mean_ms"] = ratio(ms(shapeTime[sh]), float64(shapeN[sh]))
		}
		tLat := sortedLatencies(o.clients, func(c *client) [][]time.Duration { return [][]time.Duration{c.txnLat} })
		values["txn.per_s"] = nt / secs
		values["txn.p50_ms"] = percentile(tLat, 50)
		values["txn.p99_ms"] = percentile(tLat, 99)
		values["sql.parse_ms"] = perQuery(spanNs[spanParse])
		values["sql.parses_per_query"] = ratio(float64(d.parses), nq)
		values["stats.collect_ms"] = perQuery(spanNs[spanStats])
		values["stats.collects_per_query"] = ratio(float64(o.collects), nq)
		values["optimizer.optimize_ms"] = perQuery(spanNs[spanOptNew] + spanNs[spanOptimize])
		values["exec.execute_ms"] = perQuery(spanNs[spanExecute])
		values["exec.extract_ms"] = perQuery(spanNs[spanExtract])
		values["exec.rows_per_query"] = ratio(float64(rows), nq)
		values["objcache.hit_rate"] = ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses))
		values["objcache.misses_per_query"] = ratio(float64(d.cacheMisses), nq)
		values["object.unmarshals_per_query"] = ratio(float64(d.unmarshals), nq)
		values["storage.pool.hit_rate"] = ratio(float64(d.poolHits), float64(d.poolHits+d.poolMisses))
		values["storage.disk.reads_per_query"] = ratio(float64(d.reads), nq)
		values["storage.disk.sim_ms_per_query"] = ratio(float64(d.simUs)/1e3, nq)
		values["storage.disk.writes_per_op"] = ratio(float64(d.writes), float64(ops))
		values["storage.disk.pages"] = float64(o.diskPages)
		values["kernel.tx_get_ms"] = perTxn(spanNs[spanTxGet])
		values["kernel.tx_update_ms"] = perTxn(spanNs[spanTxUpdate])
		values["kernel.tx_commit_ms"] = perTxn(spanNs[spanTxCommit])
		values["kernel.mvcc.versions"] = float64(o.versions)
		values["lock.acquisitions_per_txn"] = ratio(float64(d.lockAcquisitions), nt)
		values["lock.waits_per_txn"] = ratio(float64(d.lockWaits), nt)
		values["lock.deadlocks"] = float64(d.deadlocks)
		values["wal.forces_per_txn"] = ratio(float64(d.forces), nt)
		values["wal.records_per_txn"] = ratio(float64(d.logRecords), nt)
		values["go.allocs_per_op"] = ratio(float64(d.mallocs), float64(ops))
		values["go.alloc_bytes_per_op"] = ratio(float64(d.allocBytes), float64(ops))
		values["trace.unattributed_frac"] = 1 - ratio(float64(queryChildren), float64(spanNs[spanQuery]))
		values["trace.overhead_frac"] = ratio(float64(spans*int64(o.spanCost)), float64(spanNs[spanQuery]+spanNs[spanTxn]))
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res
}
