package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"mood/internal/cost"
	"mood/internal/lock"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/storage"
	"mood/internal/vehicledb"
)

// The join-access-path wall: every query of the sharded differential suite,
// and the indexed path predicates of pathindex_test.go, is forced down each
// of the four physical join strategies — forward traversal, binary join
// index, hash partition, fusion — at shard counts 1/2/4, serial and
// parallel, with the path predicates' final classes indexed, and must
// return exactly the rows the unforced, unindexed single store returns. Plus the shard-routing, EXPLAIN-invariant, and
// concurrent-maintenance satellites.

// forcedJoinMethods are the strategies the wall drives every query down.
// BACKWARD_TRAVERSAL is omitted: it flips which extent is scanned, so the
// optimizer only emits it when the cost model picks it — forcing it on an
// arbitrary ordering is not applicable in general.
var forcedJoinMethods = []cost.JoinMethod{
	cost.ForwardTraversal,
	cost.BinaryJoinIndex,
	cost.HashPartition,
	cost.FusionJoin,
}

// buildJoinIndexes materializes maintained BJIs on every reference hop the
// suite's path expressions use, so a forced BINARY_JOIN_INDEX is applicable
// at each join in a multi-hop path.
func buildJoinIndexes(t testing.TB, db *DB) {
	t.Helper()
	for _, ix := range []struct{ name, class, attr string }{
		{"bji_vm", "Vehicle", "manufacturer"},
		{"bji_vd", "Vehicle", "drivetrain"},
		{"bji_de", "VehicleDriveTrain", "engine"},
	} {
		if _, err := db.BuildBJI(ix.name, ix.class, ix.attr); err != nil {
			t.Fatalf("BuildBJI(%s): %v", ix.name, err)
		}
	}
}

// forceJoin pins the session's join method and drops cached plans so the
// next Execute re-optimizes under the override.
func forceJoin(db *DB, m cost.JoinMethod) {
	mm := m
	db.ForceJoin = &mm
	db.invalidatePlans()
}

// TestJoinMethodDifferentialWall is the correctness acceptance test of the
// new access paths: identical rows from every strategy, every shard count,
// serial and parallel.
func TestJoinMethodDifferentialWall(t *testing.T) {
	queries := append(append([]shardQuery{}, goldenShardQueries...), randomShardQueries()...)
	queries = append(queries, indexedPathQueries...)

	base := buildShardVehicleDB(t, 0, 0)
	want := make([]string, len(queries))
	for i, sq := range queries {
		res, err := base.Execute(sq.q)
		if err != nil {
			t.Fatalf("baseline %q: %v", sq.q, err)
		}
		want[i] = fingerprint(res, sq.ordered)
	}

	// The probe join: one reference hop with a selective left side. Each
	// forced strategy must actually show up in the optimized plan.
	const probe = `SELECT v.id FROM Vehicle v WHERE v.manufacturer.location = "Tokyo"`

	for _, nshards := range []int{1, 2, 4} {
		for _, par := range []int{0, 4} {
			t.Run(fmt.Sprintf("shards=%d/par=%d", nshards, par), func(t *testing.T) {
				db := buildShardVehicleDB(t, nshards, par)
				buildJoinIndexes(t, db)
				buildPathIndexes(t, db)
				for _, m := range forcedJoinMethods {
					forceJoin(db, m)
					if _, err := db.Execute(probe); err != nil {
						t.Fatalf("%s probe: %v", m, err)
					}
					if par == 0 {
						// Serial plans render the join method verbatim; the
						// parallel transform may wrap it in exchanges.
						if got := optimizer.Render(db.LastPlan); !strings.Contains(got, m.String()) {
							t.Fatalf("forced %s did not reach the plan:\n%s", m, got)
						}
					}
					for i, sq := range queries {
						res, err := db.Execute(sq.q)
						if err != nil {
							t.Fatalf("%s %q: %v", m, sq.q, err)
						}
						if got := fingerprint(res, sq.ordered); got != want[i] {
							t.Errorf("%s %q: results diverge from unforced single store\n--- forced ---\n%s--- baseline ---\n%s",
								m, sq.q, got, want[i])
						}
					}
				}
				db.ForceJoin = nil
			})
		}
	}
}

// TestJoinIndexShardRouting checks the sharded-store contract of the index:
// entries keep the OID shard tag (bits 60-63) through the order-preserving
// key encoding, so a probe result resolves on its owning shard at every
// shard count.
func TestJoinIndexShardRouting(t *testing.T) {
	for _, nshards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			db := buildShardVehicleDB(t, nshards, 0)
			if _, err := db.Execute(`CREATE JOIN INDEX vm ON Vehicle(manufacturer)`); err != nil {
				t.Fatal(err)
			}
			db.bjiMu.RLock()
			ix := db.bjis["vm"]
			db.bjiMu.RUnlock()
			if ix == nil {
				t.Fatal("CREATE JOIN INDEX did not register the index")
			}

			// The extent is the oracle: every vehicle's manufacturer
			// reference must round-trip through the forward tree.
			expected := map[storage.OID]storage.OID{}
			shardsSeen := map[int]bool{}
			err := db.Cat.ScanClosure("Vehicle", nil, func(oid storage.OID, v object.Value) bool {
				mf, _ := v.Field("manufacturer")
				if mf.Kind == object.KindReference && !mf.Ref.IsNil() {
					expected[oid] = mf.Ref
					shardsSeen[oid.Shard()] = true
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(expected) == 0 {
				t.Fatal("no vehicles with a manufacturer reference")
			}
			if nshards > 1 && len(shardsSeen) < 2 {
				t.Fatalf("extent landed entirely on one shard: %v", shardsSeen)
			}

			tx := db.Begin()
			defer tx.Abort()
			for src, want := range expected {
				got, err := ix.Forward(src)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0] != want {
					t.Fatalf("Forward(%s) = %v, want [%s]", src, got, want)
				}
				if got[0].Shard() != want.Shard() {
					t.Fatalf("Forward(%s) lost the shard tag: %s", src, got[0])
				}
				// The probe result must resolve through the (sharded) store.
				if _, class, err := tx.Get(got[0]); err != nil {
					t.Fatalf("probe result %s does not resolve: %v", got[0], err)
				} else if class != "Company" {
					t.Fatalf("probe result %s resolved to class %s, want Company", got[0], class)
				}
			}

			// Backward probes carry source OIDs from every shard that holds
			// referencing vehicles, each resolvable in place.
			reverse := map[storage.OID][]storage.OID{}
			for src, dst := range expected {
				reverse[dst] = append(reverse[dst], src)
			}
			backSeen := map[int]bool{}
			for dst, wantSrcs := range reverse {
				got, err := ix.Backward(dst)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(wantSrcs, func(i, j int) bool { return wantSrcs[i] < wantSrcs[j] })
				if fmt.Sprint(got) != fmt.Sprint(wantSrcs) {
					t.Fatalf("Backward(%s) = %v, want %v", dst, got, wantSrcs)
				}
				for _, src := range got {
					backSeen[src.Shard()] = true
					if _, _, err := tx.Get(src); err != nil {
						t.Fatalf("backward result %s does not resolve: %v", src, err)
					}
				}
			}
			if nshards > 1 && len(backSeen) < 2 {
				t.Fatalf("backward probes surfaced a single shard only: %v", backSeen)
			}
		})
	}
}

// TestExplainAnalyzeJoinAccessPaths checks the instrumentation satellite:
// under every forced strategy EXPLAIN ANALYZE annotates the join operator
// with its physical access path, and the reported page total still equals
// the DiskSim read-counter delta on a cold buffer pool.
func TestExplainAnalyzeJoinAccessPaths(t *testing.T) {
	db := buildShardVehicleDB(t, 0, 0)
	buildJoinIndexes(t, db)

	const query = `SELECT v.id FROM Vehicle v WHERE v.manufacturer.location = "Tokyo"`
	base, err := db.Execute(query)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		method cost.JoinMethod
		marker string
	}{
		{cost.ForwardTraversal, "access=forward"},
		{cost.BinaryJoinIndex, "access=joinindex"},
		{cost.HashPartition, "access=hash"},
		{cost.FusionJoin, "access=fusion"},
	} {
		t.Run(tc.method.String(), func(t *testing.T) {
			forceJoin(db, tc.method)
			if err := db.Pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			scope := db.Disk.Scope()
			res, err := db.Execute(`EXPLAIN ANALYZE ` + query)
			if err != nil {
				t.Fatal(err)
			}
			delta := scope.Delta()

			an := db.LastAnalyze
			if an == nil {
				t.Fatal("EXPLAIN ANALYZE did not populate LastAnalyze")
			}
			if an.TotalPages != delta.Reads() {
				t.Errorf("analysis reports %d pages, DiskSim delta is %d", an.TotalPages, delta.Reads())
			}
			if an.TotalPages == 0 {
				t.Error("expected nonzero page reads on a cold buffer pool")
			}
			if an.Root.RowsOut != int64(len(base.Rows)) {
				t.Errorf("root rows out = %d, plain SELECT returned %d rows", an.Root.RowsOut, len(base.Rows))
			}
			out := res.Rows[0][0].Str
			if !strings.Contains(out, tc.marker) {
				t.Errorf("EXPLAIN ANALYZE output lacks %q:\n%s", tc.marker, out)
			}
			if !strings.Contains(out, tc.method.String()) {
				t.Errorf("EXPLAIN ANALYZE output lacks the plan method %s:\n%s", tc.method, out)
			}
		})
	}
	db.ForceJoin = nil
}

// TestBJIMaintenanceTortureConcurrent is the maintenance torture: writers
// retarget, delete and resurrect referenced objects while readers scan
// through the index, and afterwards the index must mirror the extent
// exactly — no lost pairs, no loser pairs, deleted sources gone.
func TestBJIMaintenanceTortureConcurrent(t *testing.T) {
	db, err := Open(shardOptions(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := vehicledb.DefineSchema(db.Cat); err != nil {
		t.Fatal(err)
	}
	vdb, err := vehicledb.Populate(db.Cat, vehicledb.Config{
		Vehicles: 200, DriveTrains: 100, Engines: 100,
		Companies: 200, Employees: 4, Seed: 7, Subclasses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE JOIN INDEX vm ON Vehicle(manufacturer)`); err != nil {
		t.Fatal(err)
	}
	// Readers go through the index, not around it.
	forceJoin(db, cost.BinaryJoinIndex)

	const (
		writers = 4
		opsPer  = 30
		readers = 2
	)
	deleted := make([][]storage.OID, writers)

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Execute(`SELECT v.id FROM Vehicle v WHERE v.manufacturer.location = "Tokyo"`); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(900 + w)))
			// Each writer owns a disjoint slice of vehicles, so retries are
			// about page-level contention, never write-write conflicts.
			var mine []storage.OID
			for i := w; i < len(vdb.Vehicles); i += writers {
				mine = append(mine, vdb.Vehicles[i])
			}
			commit := func(body func(tx *Tx) error) error {
				for attempt := 0; ; attempt++ {
					tx := db.Begin()
					err := body(tx)
					if err == nil {
						if err = tx.Commit(); err == nil {
							return nil
						}
					} else {
						tx.Abort()
					}
					if !errors.Is(err, lock.ErrDeadlock) || attempt > 50 {
						return err
					}
				}
			}
			for op := 0; op < opsPer; op++ {
				i := rng.Intn(len(mine))
				oid := mine[i]
				var err error
				if op%3 < 2 {
					// Retarget the reference.
					dst := vdb.Companies[rng.Intn(len(vdb.Companies))]
					err = commit(func(tx *Tx) error {
						v, _, gerr := tx.Get(oid)
						if gerr != nil {
							return gerr
						}
						v.SetField("manufacturer", object.NewRef(dst))
						return tx.Update(oid, v)
					})
				} else {
					// Delete, then resurrect: a new vehicle referencing the
					// same company, so the reverse tree sees a remove and a
					// re-insert under the same target key.
					err = commit(func(tx *Tx) error {
						v, _, gerr := tx.Get(oid)
						if gerr != nil {
							return gerr
						}
						mf, _ := v.Field("manufacturer")
						if derr := tx.Delete(oid); derr != nil {
							return derr
						}
						fresh, cerr := tx.Create("Vehicle", object.NewTuple(
							[]string{"id", "weight", "drivetrain", "manufacturer"},
							[]object.Value{
								object.NewInt(int32(10000 + w*1000 + op)),
								object.NewInt(int32(900 + rng.Intn(2000))),
								object.NewRef(vdb.DriveTrains[rng.Intn(len(vdb.DriveTrains))]),
								mf,
							},
						))
						if cerr != nil {
							return cerr
						}
						deleted[w] = append(deleted[w], oid)
						mine[i] = fresh
						return nil
					})
				}
				if err != nil {
					t.Errorf("writer %d op %d: %v", w, op, err)
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}

	// Final consistency: the index must mirror the extent closure exactly.
	db.bjiMu.RLock()
	ix := db.bjis["vm"]
	db.bjiMu.RUnlock()
	if ix == nil {
		t.Fatal("maintenance dropped the index")
	}
	expected := map[storage.OID]storage.OID{}
	err = db.Cat.ScanClosure("Vehicle", nil, func(oid storage.OID, v object.Value) bool {
		mf, _ := v.Field("manufacturer")
		if mf.Kind == object.KindReference && !mf.Ref.IsNil() {
			expected[oid] = mf.Ref
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for src, want := range expected {
		got, err := ix.Forward(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("Forward(%s) = %v, want [%s]", src, got, want)
		}
	}
	if n := ix.Len(); n != len(expected) {
		t.Errorf("index holds %d pairs, extent induces %d", n, len(expected))
	}
	nDeleted := 0
	for _, batch := range deleted {
		for _, oid := range batch {
			nDeleted++
			if _, live := expected[oid]; live {
				// The store reuses freed slots, so a resurrected vehicle may
				// carry a deleted OID verbatim; the extent oracle above
				// already pinned its index entry.
				continue
			}
			got, err := ix.Forward(oid)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Errorf("deleted vehicle %s still indexed: %v", oid, got)
			}
		}
	}
	if nDeleted == 0 {
		t.Error("torture deleted nothing; the resurrection path never ran")
	}
	// Reverse-tree fan-in against the same oracle.
	reverse := map[storage.OID]int{}
	for _, dst := range expected {
		reverse[dst]++
	}
	for _, dst := range vdb.Companies {
		got, err := ix.Backward(dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != reverse[dst] {
			t.Errorf("Backward(%s): %d sources, extent induces %d", dst, len(got), reverse[dst])
		}
	}
	db.ForceJoin = nil
}
