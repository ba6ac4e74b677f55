package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mood/internal/cost"
	"mood/internal/kernel"
	"mood/internal/object"
	"mood/internal/storage"
)

// clients is the closed-loop client count: one per core of the two-core
// machine the bounds were measured on. Each client waits for its reply
// before it sends the next request.
const clients = 2

// zipfS skews the writer's choice of Vehicle.
const zipfS = 1.1

// config is one benchmark run.
type config struct {
	workload workload
	seed     int64
	builds   int           // database builds timed for setup_s
	warmup   time.Duration // untimed load before the window
	window   time.Duration // measured time
	// ops, when positive, replaces warm-up and window: one goroutine runs
	// ops operations, alternating between the clients' streams, so every
	// counter repeats exactly from run to run.
	ops      int
	trace    bool
	traceOut string // trace file of a traced run; empty writes none
}

// runner holds one run's database and clients.
type runner struct {
	db       *kernel.DB
	orc      *oracle
	vehicles []storage.OID
	clients  []*client
	// recording is set between phases, never while clients run.
	recording bool

	// lastStats and collects count statistics re-collections on the traced
	// path: a db.Stats call that returns a base no earlier call returned.
	lastStats atomic.Pointer[cost.Stats]
	collects  atomic.Int64

	errOnce sync.Once
}

// client is one closed-loop session: a paper-mix reader or, on a writer
// workload, the read-modify-write committer.
type client struct {
	r      *runner
	id     int
	rng    *rand.Rand
	writer bool
	zipf   *rand.Zipf
	perm   []int   // Zipf rank -> Vehicle index
	tr     *tracer // nil when untraced

	attempted, failed, committed int64
	// Recorded in the window only.
	queryLat [numShapes][]time.Duration
	txnLat   []time.Duration
	rows     int64
}

func newRunner(cfg config, db *kernel.DB, orc *oracle, vehicles []storage.OID) *runner {
	r := &runner{db: db, orc: orc, vehicles: vehicles}
	epoch := time.Now()
	for i := 0; i < clients; i++ {
		c := &client{r: r, id: i, rng: rand.New(rand.NewSource(cfg.seed*clients + int64(i)))}
		if cfg.workload.writer && i == 0 {
			c.writer = true
			c.perm = c.rng.Perm(len(vehicles))
			c.zipf = rand.NewZipf(c.rng, zipfS, 1, uint64(len(vehicles)-1))
		}
		if cfg.trace {
			c.tr = newTracer(epoch)
		}
		r.clients = append(r.clients, c)
	}
	return r
}

// phase runs every client for d.
func (r *runner) phase(d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.step()
			}
		}(c)
	}
	wg.Wait()
}

// sequential runs n operations on the calling goroutine, client streams in
// turn.
func (r *runner) sequential(n int) {
	for i := 0; i < n; i++ {
		r.clients[i%len(r.clients)].step()
	}
}

// startWindow begins recording: latencies, rows and spans from here on are
// the window's.
func (r *runner) startWindow() {
	r.recording = true
	r.collects.Store(0)
	for _, c := range r.clients {
		if c.tr != nil {
			c.tr.spans = c.tr.spans[:0]
		}
	}
}

func (c *client) step() {
	c.attempted++
	var err error
	if c.writer {
		err = c.txn()
	} else {
		err = c.query()
	}
	if err != nil {
		c.failed++
		c.r.errOnce.Do(func() { fmt.Fprintf(os.Stderr, "bench: client %d: %v\n", c.id, err) })
	}
}

// query runs one paper-mix statement and checks it against the oracle.
func (c *client) query() error {
	q := drawQuery(c.rng, &c.r.orc.domains)
	var (
		res *kernel.Result
		d   time.Duration
		err error
	)
	if c.tr == nil {
		t0 := time.Now()
		res, err = c.r.db.Execute(q.text)
		d = time.Since(t0)
	} else {
		res, d, err = c.tracedSelect(q.text)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", q.text, err)
	}
	if got, want := answerOf(res.Rows), c.r.orc.expect(q); got != want {
		return fmt.Errorf("%s: %d rows (fingerprint %x), oracle %d rows (fingerprint %x)",
			q.text, got.rows, got.fp, want.rows, want.fp)
	}
	if c.r.recording {
		c.queryLat[q.shape] = append(c.queryLat[q.shape], d)
		c.rows += int64(len(res.Rows))
	}
	return nil
}

// txn runs one write transaction on a Zipf-chosen Vehicle: read it, its
// drivetrain and its engine, add one to Vehicle.weight and to
// VehicleEngine.size, and commit. Neither attribute is read by the
// paper-mix, so the oracle holds throughout.
func (c *client) txn() error {
	oid := c.r.vehicles[c.perm[c.zipf.Uint64()]]
	var root int32
	t0 := time.Now()
	if c.tr != nil {
		root = c.tr.beginOp(spanTxn)
	}
	tx := c.r.db.Begin()
	err := c.txnBody(tx, oid)
	if err == nil {
		err = c.traced(spanTxCommit, tx.Commit)
	} else if aerr := tx.Abort(); aerr != nil {
		err = fmt.Errorf("%w (abort: %v)", err, aerr)
	}
	d := time.Since(t0)
	if c.tr != nil {
		d = c.tr.end(root)
	}
	if err != nil {
		return fmt.Errorf("transaction on %s: %w", oid, err)
	}
	c.committed++
	if c.r.recording {
		c.txnLat = append(c.txnLat, d)
	}
	return nil
}

func (c *client) txnBody(tx *kernel.Tx, oid storage.OID) error {
	get := func(oid storage.OID) (v object.Value, err error) {
		err = c.traced(spanTxGet, func() error {
			v, _, err = tx.Get(oid)
			return err
		})
		return v, err
	}
	bump := func(oid storage.OID, v object.Value, attr string) error {
		f, err := field(v, attr)
		if err != nil {
			return err
		}
		nv := v.Clone()
		nv.SetField(attr, object.NewInt(int32(f.Int+1)))
		return c.traced(spanTxUpdate, func() error { return tx.Update(oid, nv) })
	}
	v, err := get(oid)
	if err != nil {
		return err
	}
	dtRef, err := field(v, "drivetrain")
	if err != nil {
		return err
	}
	dt, err := get(dtRef.Ref)
	if err != nil {
		return err
	}
	engRef, err := field(dt, "engine")
	if err != nil {
		return err
	}
	eng, err := get(engRef.Ref)
	if err != nil {
		return err
	}
	if err := bump(oid, v, "weight"); err != nil {
		return err
	}
	return bump(engRef.Ref, eng, "size")
}

// attributeSum adds up one integer attribute over a class's extent.
func attributeSum(db *kernel.DB, class, attr string) (int64, error) {
	var sum int64
	err := navigator{db.Cat}.scan(class, func(v object.Value) error {
		f, err := field(v, attr)
		sum += f.Int
		return err
	})
	return sum, err
}

// writerSums are the two attribute sums every committed transaction grows by
// exactly one.
func writerSums(db *kernel.DB) ([2]int64, error) {
	var s [2]int64
	var err error
	if s[0], err = attributeSum(db, "Vehicle", "weight"); err != nil {
		return s, err
	}
	s[1], err = attributeSum(db, "VehicleEngine", "size")
	return s, err
}

// outcome is everything one run measured.
type outcome struct {
	setupS    float64
	elapsed   time.Duration // the window (or the ops loop)
	delta     counters      // engine counters over the window
	liveHeap  uint64        // HeapAlloc after a GC at the end of the window
	versions  int
	diskPages int
	collects  int64
	spanCost  time.Duration
	clients   []*client
	// sumsOK is false when a writer workload's attribute sums did not grow
	// by exactly the number of committed transactions.
	sumsOK bool
}

// run sets up the workload's database, drives it, and checks it.
func run(cfg config) (*outcome, error) {
	db, vehicles, orc, setupS, err := setup(cfg.workload, cfg.builds)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer db.Close()
	r := newRunner(cfg, db, orc, vehicles)
	out := &outcome{setupS: setupS, clients: r.clients, sumsOK: true}
	if cfg.trace {
		out.spanCost = spanCost()
	}
	sums0, err := writerSums(db)
	if err != nil {
		return nil, err
	}

	if cfg.ops == 0 {
		r.phase(cfg.warmup)
	}
	r.startWindow()
	before := readCounters(db)
	t0 := time.Now()
	if cfg.ops > 0 {
		r.sequential(cfg.ops)
	} else {
		r.phase(cfg.window)
	}
	out.elapsed = time.Since(t0)
	out.delta = readCounters(db).sub(before)
	out.collects = r.collects.Load()
	out.versions, _ = db.Versions()
	for _, sh := range db.Shards {
		out.diskPages += sh.Disk.NumPages()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.liveHeap = ms.HeapAlloc

	var committed int64
	for _, c := range r.clients {
		committed += c.committed
	}
	sums1, err := writerSums(db)
	if err != nil {
		return nil, err
	}
	for i := range sums0 {
		if sums1[i]-sums0[i] != committed {
			out.sumsOK = false
			fmt.Fprintf(os.Stderr, "bench: attribute sum %d grew by %d over %d committed transactions\n",
				i, sums1[i]-sums0[i], committed)
		}
	}
	if cfg.trace && cfg.traceOut != "" {
		if err := writeTrace(cfg.traceOut, r.clients); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return out, nil
}
