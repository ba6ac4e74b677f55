package kernel

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mood/internal/object"
	"mood/internal/vehicledb"
)

// The clustering differential wall: a database reorganized by the online
// clusterer must be row-for-row indistinguishable from an untouched one. The
// same golden + 60-random-predicate query set as the sharded wall runs before
// and after Reorganize at shard counts 1, 2 and 4, serial and parallel, and
// every fingerprint must match the monolithic untouched baseline. A second
// Reorganize exercises re-migration (records that already sit behind a
// forward stub moving again).

// clusterOptions enables the tracer at sampling rate 1 (every access traced)
// so small test workloads produce deterministic plans.
func clusterOptions(nshards, parallelism int) Options {
	opts := shardOptions(nshards, parallelism)
	opts.ClusterSampleEvery = 1
	opts.ObjectCacheBytes = 1 << 20
	return opts
}

func buildClusterVehicleDB(t testing.TB, nshards, parallelism int) *DB {
	t.Helper()
	db, err := Open(clusterOptions(nshards, parallelism))
	if err != nil {
		t.Fatal(err)
	}
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

func TestClusterDifferentialWall(t *testing.T) {
	queries := append(append([]shardQuery{}, goldenShardQueries...), randomShardQueries()...)

	base := buildShardVehicleDB(t, 0, 0) // untouched, no tracer
	want := make([]string, len(queries))
	for i, sq := range queries {
		res, err := base.Execute(sq.q)
		if err != nil {
			t.Fatalf("baseline %q: %v", sq.q, err)
		}
		want[i] = fingerprint(res, sq.ordered)
	}

	totalMoved := 0
	for _, nshards := range []int{1, 2, 4} {
		for _, par := range []int{0, 4} {
			t.Run(fmt.Sprintf("shards=%d/par=%d", nshards, par), func(t *testing.T) {
				db := buildClusterVehicleDB(t, nshards, par)
				// Warm-up pass populates the tracer with the workload's real
				// reference-traversal pattern (and must already match).
				for i, sq := range queries {
					res, err := db.Execute(sq.q)
					if err != nil {
						t.Fatalf("pre-reorg %q: %v", sq.q, err)
					}
					if got := fingerprint(res, sq.ordered); got != want[i] {
						t.Fatalf("pre-reorg %q diverges from untouched baseline", sq.q)
					}
				}
				for round := 1; round <= 2; round++ {
					rs, err := db.Reorganize()
					if err != nil {
						t.Fatalf("reorganize round %d: %v", round, err)
					}
					if round == 1 && rs.Moved == 0 {
						t.Errorf("round 1 moved no records despite a traced workload")
					}
					totalMoved += rs.Moved
					for i, sq := range queries {
						res, err := db.Execute(sq.q)
						if err != nil {
							t.Fatalf("round %d %q: %v", round, sq.q, err)
						}
						if got := fingerprint(res, sq.ordered); got != want[i] {
							t.Errorf("round %d %q: reorganized store diverges from untouched\n--- reorganized ---\n%s--- untouched ---\n%s",
								round, sq.q, got, want[i])
						}
					}
				}
			})
		}
	}
	if totalMoved == 0 {
		t.Fatal("no configuration moved any records; the wall tested nothing")
	}
}

// TestConcurrentReorganizerTorture runs query readers and committing writers
// against the database while the reorganizer migrates records underneath
// them. Readers compare every result against fingerprints taken before the
// torture; writers churn the Employee extent (disjoint from the compared
// Vehicle queries) so migration interleaves with live inserts and updates.
// Run under -race this validates the forwarding/locking memory model.
func TestConcurrentReorganizerTorture(t *testing.T) {
	db := buildClusterVehicleDB(t, 2, 0)
	queries := []shardQuery{
		{`SELECT v.id FROM Vehicle v WHERE v.weight < 1200`, false},
		{`SELECT v.id, v.weight FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2`, false},
		{`SELECT v.manufacturer.name FROM Vehicle v WHERE v.weight < 900`, false},
		{`SELECT COUNT(*) AS n FROM Vehicle v WHERE v.drivetrain.engine.size > 3000`, false},
		{`SELECT v.id, v.weight FROM Vehicle v WHERE v.weight > 2700 ORDER BY v.weight, v.id`, true},
	}
	want := make([]string, len(queries))
	for i, sq := range queries {
		res, err := db.Execute(sq.q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(res, sq.ordered)
	}

	const readers, writers, rounds = 3, 2, 12
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers+1)

	wg.Add(1)
	go func() { // the reorganizer, migrating continuously
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if _, err := db.Reorganize(); err != nil {
				errs <- fmt.Errorf("reorganize: %w", err)
				return
			}
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, sq := range queries {
					res, err := db.Execute(sq.q)
					if err != nil {
						errs <- fmt.Errorf("reader %q: %w", sq.q, err)
						return
					}
					if got := fingerprint(res, sq.ordered); got != want[i] {
						errs <- fmt.Errorf("reader %q: result changed during reorganization\n--- got ---\n%s--- want ---\n%s",
							sq.q, got, want[i])
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds*2; r++ {
				tx := db.Begin()
				oid, err := tx.Create("Employee", employee(fmt.Sprintf("torture-%d-%d", w, r), int32(w*100+r)))
				if err != nil {
					errs <- fmt.Errorf("writer create: %w", err)
					return
				}
				v := employee(fmt.Sprintf("torture-%d-%d", w, r), int32(w*100+r))
				v.SetField("age", object.NewInt(int32(20+r)))
				if err := tx.Update(oid, v); err != nil {
					errs <- fmt.Errorf("writer update: %w", err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("writer commit: %w", err)
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

	// The dust settled: results still match, every written employee is
	// present, and no transaction is left behind.
	for i, sq := range queries {
		res, err := db.Execute(sq.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(res, sq.ordered); got != want[i] {
			t.Errorf("post-torture %q diverges:\n--- got ---\n%s--- want ---\n%s", sq.q, got, want[i])
		}
	}
	res, err := db.Execute(`SELECT COUNT(*) AS n FROM Employee e WHERE e.age >= 20`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int; got < int64(writers*rounds*2) {
		t.Errorf("only %d torture employees survived, want >= %d", got, writers*rounds*2)
	}
	for _, sh := range db.Shards {
		if active := sh.Log.ActiveTransactions(); len(active) != 0 {
			t.Errorf("transactions still active: %v", active)
		}
	}
}

// TestExplainAnalyzeClusteredCounters checks the clustered= accounting:
// with the tracer on, EXPLAIN ANALYZE of a reference traversal reports how
// many batched reference fetches landed on how many distinct pages, both in
// Analysis and in the rendered output; with the tracer off the annotation
// must not appear.
func TestExplainAnalyzeClusteredCounters(t *testing.T) {
	db := buildClusterVehicleDB(t, 0, 0)
	res, err := db.Execute(`EXPLAIN ANALYZE SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2`)
	if err != nil {
		t.Fatal(err)
	}
	an := db.LastAnalyze
	if an == nil {
		t.Fatal("EXPLAIN ANALYZE did not populate LastAnalyze")
	}
	if !an.ClusterEnabled {
		t.Error("ClusterEnabled false with the tracer on")
	}
	if an.ClusterRefs == 0 || an.ClusterPages == 0 {
		t.Errorf("clustered counters empty on a path traversal: refs=%d pages=%d", an.ClusterRefs, an.ClusterPages)
	}
	if an.ClusterPages > an.ClusterRefs {
		t.Errorf("distinct pages %d exceed references %d", an.ClusterPages, an.ClusterRefs)
	}
	out := res.Rows[0][0].Str
	if !strings.Contains(out, "clustered=") {
		t.Errorf("rendered EXPLAIN ANALYZE lacks clustered= annotation:\n%s", out)
	}

	plain := buildShardVehicleDB(t, 0, 0)
	res, err = plain.Execute(`EXPLAIN ANALYZE SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if plain.LastAnalyze.ClusterEnabled {
		t.Error("ClusterEnabled true with the tracer off")
	}
	if strings.Contains(res.Rows[0][0].Str, "clustered=") {
		t.Error("tracer-off EXPLAIN ANALYZE carries a clustered= annotation")
	}
}

// TestReorganizeImprovesColdTraversal is the kernel-level perf smoke check
// (the full OCB-style protocol with a genuinely scattered layout lives in
// internal/experiments): after the workload is traced and the store
// reorganized, a cold repeat of the same path traversal must not read more
// pages than before — the vacated source pages are parked out of the scan
// chains, so the doubled file must not scan double — and the traversal's
// measured locality (distinct pages per batched reference fetch) must
// strictly improve, since the plan packs co-dereferenced records together.
func TestReorganizeImprovesColdTraversal(t *testing.T) {
	db := buildClusterVehicleDB(t, 0, 0)
	const q = `SELECT v.id, v.weight FROM Vehicle v WHERE v.drivetrain.engine.cylinders >= 2`

	// cold measures one analyzed execution against an evicted buffer pool and
	// a reset object cache, returning the simulated read count and the
	// traversal's distinct-page locality figure.
	cold := func() (int64, int64) {
		t.Helper()
		for _, sh := range db.Shards {
			if err := sh.Pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
		}
		if db.ObjectCache() != nil {
			db.ObjectCache().Reset()
		}
		before := db.Store.ShardReads()
		if _, err := db.Execute(`EXPLAIN ANALYZE ` + q); err != nil {
			t.Fatal(err)
		}
		var n int64
		for sh, r := range db.Store.ShardReads() {
			n += r - before[sh]
		}
		if db.LastAnalyze == nil || db.LastAnalyze.ClusterRefs == 0 {
			t.Fatal("analyzed traversal recorded no clustered reference fetches")
		}
		return n, db.LastAnalyze.ClusterPages
	}

	scattered, scatteredPages := cold()
	// Trace the traversal a few times so the plan reflects it, then apply.
	for i := 0; i < 3; i++ {
		if _, err := db.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := db.Reorganize()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Moved == 0 {
		t.Fatal("reorganization moved nothing")
	}
	if rs.PagesFreed == 0 {
		t.Error("compaction parked/freed no source pages after a whole-part rewrite")
	}
	// One warm pass absorbs the post-reorganization statistics recollection
	// (Reorganize drops the whole statistics base, so the next planning
	// rescans every extent); the cold measurement below then prices the
	// query alone.
	if _, err := db.Execute(q); err != nil {
		t.Fatal(err)
	}
	clustered, clusteredPages := cold()
	t.Logf("cold traversal: reads %d -> %d, locality pages %d -> %d (moved=%d, pages parked/freed=%d)",
		scattered, clustered, scatteredPages, clusteredPages, rs.Moved, rs.PagesFreed)
	if clustered > scattered {
		t.Errorf("reorganization made the cold traversal WORSE: %d -> %d reads", scattered, clustered)
	}
	if clusteredPages >= scatteredPages {
		t.Errorf("traversal locality did not improve: %d -> %d distinct pages", scatteredPages, clusteredPages)
	}
}
