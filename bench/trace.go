package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mood/internal/exec"
	"mood/internal/kernel"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/sql"
)

// spanName names a layer boundary the benchmark times. The benchmark's own
// code records every span around a call into a layer; the engine is not
// instrumented.
type spanName uint8

const (
	spanQuery    spanName = iota // root: one SELECT
	spanTxn                      // root: one write transaction, Begin to Commit
	spanParse                    // sql.Parse
	spanStats                    // db.Stats: the statistics base, re-collected when stale
	spanOptNew                   // optimizer.New plus the join-index registrations
	spanOptimize                 // Optimizer.Optimize
	spanExecute                  // Executor.Execute
	spanExtract                  // exec.Extract
	spanTxGet                    // Tx.Get
	spanTxUpdate                 // Tx.Update
	spanTxCommit                 // Tx.Commit
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"query", "txn", "sql.parse", "stats.get", "optimizer.new", "optimizer.optimize",
	"exec.execute", "exec.extract", "kernel.tx_get", "kernel.tx_update", "kernel.tx_commit",
}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	op         int64 // operation id, shared by every span of one operation
	parent     int32 // index of the parent span in the same tracer; -1 for a root
	name       spanName
	start, end int64
}

// tracer keeps one client's spans in memory; it is never shared between
// goroutines.
type tracer struct {
	epoch time.Time
	spans []span
	op    int64
	root  int32
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16), root: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp(name spanName) int32 {
	t.op++
	t.root = -1 // begin takes the parent from root: a root has none
	t.root = t.begin(name)
	return t.root
}

// begin opens a span under the current operation's root.
func (t *tracer) begin(name spanName) int32 {
	t.spans = append(t.spans, span{op: t.op, parent: t.root, name: name, start: t.now()})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	s := &t.spans[i]
	s.end = t.now()
	return time.Duration(s.end - s.start)
}

// spanCost measures what recording one span costs, by timing spans into a
// throwaway tracer; trace.overhead_frac multiplies it by the spans recorded.
func spanCost() time.Duration {
	const n = 1 << 16
	t := newTracer(time.Now())
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(spanParse))
	}
	return time.Since(t0) / n
}

// tracedSelect runs one SELECT through the public sequence kernel's
// execSelect performs, timing each step as a span under the query's root.
func (c *client) tracedSelect(text string) (*kernel.Result, time.Duration, error) {
	t, db := c.tr, c.r.db
	root := t.beginOp(spanQuery)
	res, err := func() (*kernel.Result, error) {
		s := t.begin(spanParse)
		st, err := sql.Parse(text)
		t.end(s)
		if err != nil {
			return nil, err
		}
		sel, ok := st.(*sql.Select)
		if !ok {
			return nil, fmt.Errorf("%q is not a SELECT", text)
		}
		s = t.begin(spanStats)
		stats, err := db.Stats()
		t.end(s)
		if err != nil {
			return nil, err
		}
		if c.r.lastStats.Swap(stats) != stats {
			c.r.collects.Add(1)
		}
		s = t.begin(spanOptNew)
		opt := optimizer.New(db.Cat, stats)
		for name, ix := range db.Exec.BJIs {
			opt.RegisterBJI(ix.Class, ix.Attribute, name, ix.CostStats())
		}
		t.end(s)
		s = t.begin(spanOptimize)
		plan, _, err := opt.Optimize(sel)
		t.end(s)
		if err != nil {
			return nil, err
		}
		s = t.begin(spanExecute)
		coll, err := db.Exec.Execute(plan)
		t.end(s)
		if err != nil {
			return nil, err
		}
		s = t.begin(spanExtract)
		res := exec.Extract(coll)
		t.end(s)
		return res, nil
	}()
	return res, t.end(root), err
}

// traced times fn as a span of the current operation; untraced clients
// just call it.
func (c *client) traced(name spanName, fn func() error) error {
	if c.tr == nil {
		return fn()
	}
	s := c.tr.begin(name)
	err := fn()
	c.tr.end(s)
	return err
}

// writeTrace writes every client's spans, one JSON object per line.
func writeTrace(path string, clients []*client) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, c := range clients {
		for i, s := range c.tr.spans {
			fmt.Fprintf(w, `{"client":%d,"op":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				c.id, s.op, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters are the engine's cumulative counters, read through public
// accessors; the benchmark reports window deltas.
type counters struct {
	reads, writes, simUs   int64
	poolHits, poolMisses   int64
	cacheHits, cacheMisses int64
	unmarshals, parses     int64
	lockAcquisitions       int64
	lockWaits, deadlocks   int64
	forces, logRecords     int64
	mallocs, allocBytes    uint64
}

func readCounters(db *kernel.DB) counters {
	var c counters
	for _, sh := range db.Shards {
		ds := sh.Disk.Stats()
		c.reads += ds.Reads()
		c.writes += ds.Writes()
		c.simUs += ds.TimeUs
		h, m, _ := sh.Pool.Stats()
		c.poolHits += h
		c.poolMisses += m
		c.forces += sh.Log.FlushCount()
		c.logRecords += int64(sh.Log.Len())
	}
	if oc := db.ObjectCache(); oc != nil {
		c.cacheHits, c.cacheMisses = oc.Hits(), oc.Misses()
	}
	c.unmarshals = object.Unmarshals()
	c.parses = sql.ParseCount.Load()
	c.lockAcquisitions, c.lockWaits, c.deadlocks = db.Locks.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		reads:            a.reads - b.reads,
		writes:           a.writes - b.writes,
		simUs:            a.simUs - b.simUs,
		poolHits:         a.poolHits - b.poolHits,
		poolMisses:       a.poolMisses - b.poolMisses,
		cacheHits:        a.cacheHits - b.cacheHits,
		cacheMisses:      a.cacheMisses - b.cacheMisses,
		unmarshals:       a.unmarshals - b.unmarshals,
		parses:           a.parses - b.parses,
		lockAcquisitions: a.lockAcquisitions - b.lockAcquisitions,
		lockWaits:        a.lockWaits - b.lockWaits,
		deadlocks:        a.deadlocks - b.deadlocks,
		forces:           a.forces - b.forces,
		logRecords:       a.logRecords - b.logRecords,
		mallocs:          a.mallocs - b.mallocs,
		allocBytes:       a.allocBytes - b.allocBytes,
	}
}
