package kernel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mood/internal/object"
	"mood/internal/storage"
	"mood/internal/vehicledb"
)

// The sharded differential wall: the same vehicle database is built at shard
// counts 1, 2 and 4 (serial and parallel) and every query — a golden set plus
// 60 seeded random predicates — must return exactly the rows the single
// monolithic store returns. Row order differs across shard counts (parts
// scan round-robin), so unordered queries compare as sorted-row fingerprints;
// ORDER BY queries compare byte-identically.

func shardOptions(nshards, parallelism int) Options {
	opts := DefaultOptions()
	opts.BufferFrames = 512
	opts.ShardCount = nshards
	opts.Parallelism = parallelism
	return opts
}

// exchangeSmallExtents disables the cost-model page threshold of a parallel
// kernel, so even the small test extents exchange.
func exchangeSmallExtents(db *DB) {
	if db.parallelism > 1 {
		db.parallelMinPages = -1
	}
}

// buildShardVehicleDB opens a kernel at the given shard count and degree of
// parallelism and loads the deterministic vehicle database into it.
func buildShardVehicleDB(t testing.TB, nshards, parallelism int) *DB {
	t.Helper()
	return openVehicleDB(t, shardOptions(nshards, parallelism))
}

// openVehicleDB opens a kernel with opts and loads the deterministic
// vehicle database into it.
func openVehicleDB(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	exchangeSmallExtents(db)
	if err := vehicledb.DefineSchema(db.Cat); err != nil {
		t.Fatal(err)
	}
	cfg := vehicledb.Config{
		Vehicles: 400, DriveTrains: 200, Engines: 200,
		Companies: 400, Employees: 20, Seed: 5, Subclasses: true,
	}
	if _, err := vehicledb.Populate(db.Cat, cfg); err != nil {
		t.Fatal(err)
	}
	if err := db.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	return db
}

// fingerprint renders a result with rows sorted (the multiset of rows), or
// in delivered order for ORDER BY queries.
func fingerprint(res *Result, ordered bool) string {
	out := renderResult(res)
	if ordered {
		return out
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) <= 3 {
		return out
	}
	body := lines[2 : len(lines)-1] // between separator and "(n rows)"
	sort.Strings(body)
	return strings.Join(lines, "\n") + "\n"
}

type shardQuery struct {
	q       string
	ordered bool
}

// goldenShardQueries cover scans, path expressions (implicit joins),
// aggregates, BETWEEN, string predicates, ordering, and the IS-A closure.
// Projections are atomic — OIDs differ across shard counts by construction.
var goldenShardQueries = []shardQuery{
	{`SELECT v.id FROM Vehicle v WHERE v.weight < 1200`, false},
	{`SELECT v.id, v.weight FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2`, false},
	{`SELECT v.manufacturer.name FROM Vehicle v WHERE v.weight < 900`, false},
	{`SELECT v.id FROM Vehicle v WHERE v.drivetrain.transmission = "MANUAL" AND v.weight > 1500`, false},
	{`SELECT COUNT(*) AS n FROM Vehicle v WHERE v.drivetrain.engine.size > 3000`, false},
	{`SELECT v.id FROM Vehicle v WHERE v.weight BETWEEN 1000 AND 1500`, false},
	{`SELECT v.id, v.weight FROM Vehicle v WHERE v.weight > 2700 ORDER BY v.weight, v.id`, true},
	{`SELECT e.name FROM Employee e WHERE e.age >= 30 ORDER BY e.name`, true},
	{`SELECT c.name FROM Company c WHERE c.location = "Tokyo" AND c.name = "BMW"`, false},
	{`SELECT v.id FROM JapaneseAuto v WHERE v.weight < 2000`, false},
}

// randomShardQueries generates 60 deterministic single-predicate queries over
// atomic and path attributes.
func randomShardQueries() []shardQuery {
	rng := rand.New(rand.NewSource(7))
	intOps := []string{"=", "<>", "<", "<=", ">", ">="}
	strOps := []string{"=", "<>"}
	type attr struct {
		lhs   string
		str   []string // string domain; nil means integer
		lo, w int      // integer constant range [lo, lo+w)
	}
	attrs := []attr{
		{lhs: "v.weight", lo: 800, w: 2200},
		{lhs: "v.id", lo: 0, w: 400},
		{lhs: "v.drivetrain.engine.cylinders", lo: 2, w: 31},
		{lhs: "v.drivetrain.engine.size", lo: 1000, w: 4000},
		{lhs: "v.drivetrain.transmission", str: vehicledb.Transmissions},
		{lhs: "v.manufacturer.location", str: []string{"Ankara", "Munich", "Tokyo", "Detroit", "Istanbul"}},
	}
	var out []shardQuery
	for i := 0; i < 60; i++ {
		a := attrs[rng.Intn(len(attrs))]
		var pred string
		if a.str != nil {
			pred = fmt.Sprintf(`%s %s %q`, a.lhs, strOps[rng.Intn(len(strOps))], a.str[rng.Intn(len(a.str))])
		} else {
			pred = fmt.Sprintf(`%s %s %d`, a.lhs, intOps[rng.Intn(len(intOps))], a.lo+rng.Intn(a.w))
		}
		out = append(out, shardQuery{q: `SELECT v.id FROM Vehicle v WHERE ` + pred})
	}
	return out
}

// TestShardedDifferentialWall is the correctness acceptance test of the
// sharded store: identical results at every shard count, serial and
// parallel.
func TestShardedDifferentialWall(t *testing.T) {
	queries := append(append([]shardQuery{}, goldenShardQueries...), randomShardQueries()...)

	base := buildShardVehicleDB(t, 0, 0)
	want := make([]string, len(queries))
	for i, sq := range queries {
		res, err := base.Execute(sq.q)
		if err != nil {
			t.Fatalf("baseline %q: %v", sq.q, err)
		}
		want[i] = fingerprint(res, sq.ordered)
	}
	nonEmpty := 0
	for _, fp := range want {
		if !strings.Contains(fp, "(0 rows)") {
			nonEmpty++
		}
	}
	if nonEmpty < len(queries)/2 {
		t.Fatalf("only %d/%d baseline queries returned rows; the wall is too weak", nonEmpty, len(queries))
	}

	for _, nshards := range []int{1, 2, 4} {
		for _, par := range []int{0, 4} {
			t.Run(fmt.Sprintf("shards=%d/par=%d", nshards, par), func(t *testing.T) {
				db := buildShardVehicleDB(t, nshards, par)
				if got := db.Store.Shards(); got != nshards {
					t.Fatalf("store reports %d shards, want %d", got, nshards)
				}
				for i, sq := range queries {
					res, err := db.Execute(sq.q)
					if err != nil {
						t.Fatalf("%q: %v", sq.q, err)
					}
					if got := fingerprint(res, sq.ordered); got != want[i] {
						t.Errorf("%q: results diverge from single store\n--- sharded(%d) ---\n%s--- single ---\n%s",
							sq.q, nshards, got, want[i])
					}
				}
				if nshards > 1 {
					// A cold full extent scan must read pages on every shard.
					for _, sh := range db.Shards {
						if err := sh.Pool.EvictAll(); err != nil {
							t.Fatal(err)
						}
					}
					before := db.Store.ShardReads()
					if _, err := db.Execute(`SELECT COUNT(*) AS n FROM Vehicle v`); err != nil {
						t.Fatal(err)
					}
					for sh, n := range db.Store.ShardReads() {
						if n-before[sh] == 0 {
							t.Errorf("shard %d served zero reads on a cold scan", sh)
						}
					}
				}
			})
		}
	}
}

// TestShardedCommitThroughput is the performance acceptance check: with a
// simulated fsync latency on every log force, four independent WALs must
// sustain at least twice the single-log commit rate. Every transaction has
// single-shard affinity (it creates an object and updates that same object),
// so each commit forces exactly one shard's log.
func TestShardedCommitThroughput(t *testing.T) {
	const (
		workers   = 8
		txsPer    = 25
		syncDelay = time.Millisecond
	)
	measure := func(nshards int) float64 {
		db, err := Open(shardOptions(nshards, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := vehicledb.DefineSchema(db.Cat); err != nil {
			t.Fatal(err)
		}
		for _, sh := range db.Shards {
			sh.Log.SetSyncDelay(syncDelay)
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < txsPer; i++ {
					tx := db.Begin()
					oid, err := tx.Create("Employee", employee(fmt.Sprintf("w%d-%d", w, i), int32(w*1000+i)))
					if err != nil {
						errs <- err
						return
					}
					v := employee(fmt.Sprintf("w%d-%d", w, i), int32(w*1000+i))
					v.SetField("age", object.NewInt(int32(40+i)))
					if err := tx.Update(oid, v); err != nil {
						errs <- err
						return
					}
					if err := tx.Commit(); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return float64(workers*txsPer) / time.Since(start).Seconds()
	}

	single := measure(1)
	sharded := measure(4)
	t.Logf("commits/sec: single=%.0f sharded(4)=%.0f speedup=%.2fx", single, sharded, sharded/single)
	if sharded < 2*single {
		t.Errorf("4-shard commit rate %.0f/s is below 2x the single-store rate %.0f/s", sharded, single)
	}
}

// TestShardedObjectCacheCoherence checks the (shard,OID) cache contract:
// OIDs carry their shard tag, so records minted on different shards with
// identical file/page/slot coordinates never alias in the shared object
// cache, and updates/deletes invalidate exactly the touched record.
func TestShardedObjectCacheCoherence(t *testing.T) {
	opts := shardOptions(2, 0)
	opts.ObjectCacheBytes = 1 << 20
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := vehicledb.DefineSchema(db.Cat); err != nil {
		t.Fatal(err)
	}
	// Round-robin placement: consecutive creates land on alternating shards
	// with identical within-shard coordinates.
	setup := db.Begin()
	a, err := setup.Create("Employee", employee("on-shard-0", 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := setup.Create("Employee", employee("on-shard-1", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if a.Shard() == b.Shard() {
		t.Fatalf("consecutive creates landed on the same shard (%s, %s)", a, b)
	}

	read := func(oid storage.OID) object.Value {
		t.Helper()
		tx := db.Begin()
		v, _, err := tx.Get(oid)
		if err != nil {
			t.Fatalf("Get(%s): %v", oid, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	name := func(v object.Value) string {
		f, _ := v.Field("name")
		return f.Str
	}

	// Warm the cache with both records, then check they stay distinct.
	if got := name(read(a)); got != "on-shard-0" {
		t.Fatalf("read a = %q", got)
	}
	if got := name(read(b)); got != "on-shard-1" {
		t.Fatalf("read b = %q", got)
	}

	// Update a; b's cached copy must be untouched, a's must be invalidated.
	tx := db.Begin()
	if err := tx.Update(a, employee("renamed", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := name(read(a)); got != "renamed" {
		t.Errorf("after update, cached read of a = %q, want %q", got, "renamed")
	}
	if got := name(read(b)); got != "on-shard-1" {
		t.Errorf("updating a changed b's cached value to %q", got)
	}

	// Delete b; a must survive, b must be gone even though it was cached.
	tx = db.Begin()
	if err := tx.Delete(b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	probe := db.Begin()
	if _, _, err := probe.Get(b); err == nil {
		t.Error("deleted object b still readable through the cache")
	}
	_ = probe.Abort()
	if got := name(read(a)); got != "renamed" {
		t.Errorf("deleting b disturbed a: %q", got)
	}
}

// TestShardedExplainAnalyzePages checks EXPLAIN ANALYZE's per-shard page
// accounting: the reported total equals the sum of the per-shard DiskSim
// deltas, and the rendered output carries the per-shard breakdown.
func TestShardedExplainAnalyzePages(t *testing.T) {
	db := buildShardVehicleDB(t, 2, 0)
	for _, sh := range db.Shards {
		if err := sh.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Store.ShardReads()
	res, err := db.Execute(`EXPLAIN ANALYZE SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2`)
	if err != nil {
		t.Fatal(err)
	}
	after := db.Store.ShardReads()

	an := db.LastAnalyze
	if an == nil {
		t.Fatal("EXPLAIN ANALYZE did not populate LastAnalyze")
	}
	if len(an.ShardPages) != 2 {
		t.Fatalf("Analysis.ShardPages has %d entries, want 2", len(an.ShardPages))
	}
	var sum int64
	for sh, n := range an.ShardPages {
		if want := after[sh] - before[sh]; n != want {
			t.Errorf("shard %d: analysis reports %d pages, DiskSim delta is %d", sh, n, want)
		}
		if n == 0 {
			t.Errorf("shard %d reports zero pages on a cold join scan", sh)
		}
		sum += n
	}
	if an.TotalPages != sum {
		t.Errorf("TotalPages %d != sum of per-shard deltas %d", an.TotalPages, sum)
	}
	out := res.Rows[0][0].Str
	if !strings.Contains(out, "shards=[") {
		t.Errorf("EXPLAIN ANALYZE output lacks the per-shard annotation:\n%s", out)
	}

	// Single-store output must be unchanged: no per-shard annotation.
	single := buildShardVehicleDB(t, 0, 0)
	res, err = single.Execute(`EXPLAIN ANALYZE SELECT v.id FROM Vehicle v WHERE v.weight < 1200`)
	if err != nil {
		t.Fatal(err)
	}
	if single.LastAnalyze == nil || single.LastAnalyze.ShardPages != nil {
		t.Error("single-store analysis unexpectedly carries ShardPages")
	}
	if strings.Contains(res.Rows[0][0].Str, "shards=[") {
		t.Error("single-store EXPLAIN ANALYZE output carries a per-shard annotation")
	}
}
