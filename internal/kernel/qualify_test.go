package kernel

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mood/internal/exec"
	"mood/internal/expr"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/storage"
	"mood/internal/vehicledb"
)

// scanReport finds the EXPLAIN ANALYZE node of the first extent scan.
func scanReport(r *exec.OpReport) *exec.OpReport {
	if r.DecodedSet {
		return r
	}
	for _, k := range r.Kids {
		if s := scanReport(k); s != nil {
			return s
		}
	}
	return nil
}

// TestScanDecodesOnlyQualifyingCompanies: with the object cache off, the
// location scan checks every Company on its partial tuple and unmarshals
// exactly the Tokyo ones, which EXPLAIN ANALYZE reports as decoded=N on the
// scan line; its page total still equals the simulated disk's read delta.
func TestScanDecodesOnlyQualifyingCompanies(t *testing.T) {
	db := openVehicles(t, 1, vehicledb.Config{
		Vehicles: 100, DriveTrains: 50, Engines: 50, Companies: 2000, Employees: 20, Seed: 3,
	})
	defer db.Close()
	if err := db.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	tokyo := 0
	if err := db.Cat.ScanExtent("Company", func(_ storage.OID, v object.Value) bool {
		if loc, _ := v.Field("location"); loc.Str == "Tokyo" {
			tokyo++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if tokyo == 0 {
		t.Fatal("no Tokyo company in the fixture")
	}

	const query = `SELECT c.name FROM Company c WHERE c.location = 'Tokyo'`
	if _, err := db.Execute(query); err != nil { // plans and compiles once
		t.Fatal(err)
	}
	u0 := object.Unmarshals()
	res, err := db.Execute(query)
	if err != nil {
		t.Fatal(err)
	}
	if decoded := object.Unmarshals() - u0; decoded != int64(tokyo) || len(res.Rows) != tokyo {
		t.Errorf("query returned %d rows and unmarshalled %d objects; want the %d Tokyo companies for both",
			len(res.Rows), decoded, tokyo)
	}

	if err := db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	scope := db.Disk.Scope()
	out, err := db.Execute(`EXPLAIN ANALYZE ` + query)
	if err != nil {
		t.Fatal(err)
	}
	an := db.LastAnalyze
	if an.TotalPages != scope.Delta().Reads() || an.TotalPages == 0 {
		t.Errorf("analysis reports %d pages, DiskSim delta is %d", an.TotalPages, scope.Delta().Reads())
	}
	scan := scanReport(an.Root)
	if scan == nil {
		t.Fatalf("no Company scan in\n%s", out.Rows[0][0].Str)
	}
	if scan.Decoded != int64(tokyo) {
		t.Errorf("scan reports decoded=%d, want %d", scan.Decoded, tokyo)
	}
	if want := fmt.Sprintf("decoded=%d", tokyo); !strings.Contains(out.Rows[0][0].Str, want) {
		t.Errorf("EXPLAIN ANALYZE lacks %s:\n%s", want, out.Rows[0][0].Str)
	}
}

// TestScanPredicateResolvesBesideWriter runs a compiled scan predicate that
// dereferences each Company's president, serially and through the exchange,
// while a writer commits updates to the same Companies and Employees. The
// predicate resolves only after the page's store lock is released, so a
// writer queued for that lock cannot deadlock the scan; under -race the run
// also checks that the copied record bytes are never shared with the
// writer. Both cache settings are covered.
func TestScanPredicateResolvesBesideWriter(t *testing.T) {
	for _, cacheBytes := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			opts := DefaultOptions()
			opts.ObjectCacheBytes = cacheBytes
			db := openVehiclesWith(t, opts, vehicledb.Config{
				Vehicles: 50, DriveTrains: 25, Engines: 25, Companies: 600, Employees: 20, Seed: 4,
			})
			defer db.Close()
			companies, employees := liveOIDs(t, db, "Company"), liveOIDs(t, db, "Employee")
			st, err := db.Stats()
			if err != nil {
				t.Fatal(err)
			}
			// c.location <> "Nowhere" AND c.president.age > 40: the path is
			// part of the scan's own predicate, not a planned join.
			pred := &expr.Logic{Op: expr.OpAnd,
				L: &expr.Cmp{Op: expr.OpNe, L: expr.Path("c", "location"), R: &expr.Const{Val: object.NewString("Nowhere")}},
				R: &expr.Cmp{Op: expr.OpGt, L: expr.Path("c", "president", "age"), R: &expr.Const{Val: object.NewInt(40)}}}
			plan := &optimizer.SelectPlan{Input: &optimizer.BindPlan{Class: "Company", Var: "c"}, Pred: pred}
			plans := []optimizer.Plan{plan, optimizer.Parallelize(plan, 4, -1, st)}

			stop := make(chan struct{})
			var commits atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				locations := []string{"Ankara", "Munich", "Tokyo"}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					tx := db.Begin()
					c := companies[i%len(companies)]
					v, _, err := tx.Get(c)
					if err == nil {
						v = v.Clone() // Get may hand out the cached value
						v.SetField("location", object.NewString(locations[i%len(locations)]))
						err = tx.Update(c, v)
					}
					if err == nil {
						e := employees[i%len(employees)]
						var ev object.Value
						if ev, _, err = tx.Get(e); err == nil {
							ev = ev.Clone()
							ev.SetField("age", object.NewInt(int32(20+i%50)))
							err = tx.Update(e, ev)
						}
					}
					if err != nil {
						tx.Abort()
						t.Errorf("writer: %v", err)
						return
					}
					if err := tx.Commit(); err != nil {
						t.Errorf("writer commit: %v", err)
						return
					}
					commits.Add(1)
				}
			}()

			done := make(chan error, 1)
			go func() {
				// At least 20 scans, and on until the writer has committed
				// 20 times, so the two overlap.
				for i := 0; i < 20 || commits.Load() < 20; i++ {
					if _, err := db.Exec.Execute(plans[i%len(plans)]); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(time.Minute):
				t.Fatal("scan beside a writer did not finish: deadlock")
			}
			close(stop)
			wg.Wait()
		})
	}
}
