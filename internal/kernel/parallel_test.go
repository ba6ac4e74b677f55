package kernel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mood/internal/exec"
	"mood/internal/optimizer"
	"mood/internal/sql"
	"mood/internal/vehicledb"
)

// openParallel opens a kernel that plans every query at degree-of-
// parallelism 4 with the cost-model page threshold disabled, so even the
// small test extents exchange.
func openParallel(t testing.TB) *DB {
	t.Helper()
	opts := DefaultOptions()
	opts.Parallelism = 4
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	exchangeSmallExtents(db)
	return db
}

// TestParallelGoldenSuiteDifferential replays the full MOODSQL golden script
// against two kernels — one serial, one with intra-query parallelism — and
// demands byte-identical rendered results for every SELECT. DDL/DML advance
// both databases identically, so each query pair sees the same state.
func TestParallelGoldenSuiteDifferential(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("testdata", "basic.moodsql"))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	par := openParallel(t)

	selects, exchanged := 0, 0
	for _, stmt := range splitScript(string(script)) {
		parsed, err := sql.Parse(stmt)
		if err != nil {
			continue
		}
		sel, isSelect := parsed.(*sql.Select)
		if !isSelect {
			serial.ExecuteStmt(parsed)
			par.ExecuteStmt(parsed)
			continue
		}

		splan, err := serial.optimize(sel)
		if err != nil {
			continue
		}
		pplan, err := par.optimize(sel)
		if err != nil {
			t.Fatalf("%s: parallel optimize failed where serial succeeded: %v", stmt, err)
		}
		if strings.Contains(optimizer.Render(pplan), "EXCHANGE(") {
			exchanged++
		}

		sres, err := serial.Exec.Execute(splan)
		if err != nil {
			t.Fatalf("%s: serial execute: %v", stmt, err)
		}
		pres, err := par.Exec.Execute(pplan)
		if err != nil {
			t.Fatalf("%s: parallel execute: %v\nplan:\n%s", stmt, err, optimizer.Render(pplan))
		}
		got, want := renderResult(exec.Extract(pres)), renderResult(exec.Extract(sres))
		if got != want {
			t.Errorf("%s: parallel result diverged:\n--- parallel ---\n%s--- serial ---\n%s", stmt, got, want)
		}
		selects++
	}
	if selects == 0 {
		t.Fatal("golden script produced no successfully planned SELECTs")
	}
	if exchanged == 0 {
		t.Fatal("no golden query planned an EXCHANGE; the parallel kernel path was never exercised")
	}
}

// TestParallelExplainAnalyzePageTotals is the parallel acceptance check on
// EXPLAIN ANALYZE: with exchanges in the plan, the reported page total still
// equals the DiskSim read-counter delta (workers drain inside the
// instrumented Open), and the annotated tree carries per-worker rows/pages.
func TestParallelExplainAnalyzePageTotals(t *testing.T) {
	db := openParallel(t)
	if err := vehicledb.DefineSchema(db.Cat); err != nil {
		t.Fatal(err)
	}
	cfg := vehicledb.Config{
		Vehicles: 400, DriveTrains: 200, Engines: 200,
		Companies: 400, Employees: 20, Seed: 5,
	}
	if _, err := vehicledb.Populate(db.Cat, cfg); err != nil {
		t.Fatal(err)
	}
	if err := db.RefreshStats(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, query string
	}{
		{"scan-filter", `SELECT v FROM Vehicle v WHERE v.weight > 1200`},
		{"hash-join", `SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := db.Execute(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(optimizer.Render(db.LastPlan), "EXCHANGE(") {
				t.Fatalf("plan has no EXCHANGE node:\n%s", optimizer.Render(db.LastPlan))
			}

			if err := db.Pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			scope := db.Disk.Scope()
			res, err := db.Execute(`EXPLAIN ANALYZE ` + tc.query)
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
			if !strings.Contains(out, "[worker ") {
				t.Errorf("EXPLAIN ANALYZE output lacks per-worker annotations:\n%s", out)
			}
		})
	}
}
