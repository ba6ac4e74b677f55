package kernel

import (
	"os"
	"path/filepath"
	"testing"

	"mood/internal/exec"
	"mood/internal/optimizer"
	"mood/internal/sql"
)

// TestGoldenSuiteStreamingDifferential replays the full MOODSQL golden
// script and, for every SELECT, runs the optimized plan through the
// streaming pipeline, the retained materializing executor, and the
// morsel-parallel rewrite, demanding identical rendered results and a
// stable LastPlan rendering. DDL and DML statements execute normally so
// each query sees the same database state the golden run does.
func TestGoldenSuiteStreamingDifferential(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("testdata", "basic.moodsql"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	selects := 0
	for _, stmt := range splitScript(string(script)) {
		parsed, err := sql.Parse(stmt)
		if err != nil {
			continue // the golden file records parse errors; skip here
		}
		sel, isSelect := parsed.(*sql.Select)
		if !isSelect {
			if _, err := db.ExecuteStmt(parsed); err != nil {
				continue // intentional error cases advance no state
			}
			continue
		}

		plan, err := db.optimize(sel)
		if err != nil {
			continue
		}
		renderBefore := optimizer.Render(plan)

		stream, err := db.Exec.Execute(plan)
		if err != nil {
			t.Fatalf("%s: streaming execute: %v", stmt, err)
		}
		eager, err := db.Exec.ExecuteMaterialized(plan)
		if err != nil {
			t.Fatalf("%s: materialized execute: %v", stmt, err)
		}
		got, want := renderResult(exec.Extract(stream)), renderResult(exec.Extract(eager))
		if got != want {
			t.Errorf("%s: paths disagree:\n--- streaming ---\n%s--- materialized ---\n%s", stmt, got, want)
		}
		st, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		par, err := db.Exec.Execute(optimizer.Parallelize(plan, 4, -1, st))
		if err != nil {
			t.Fatalf("%s: parallel execute: %v", stmt, err)
		}
		if got := renderResult(exec.Extract(par)); got != want {
			t.Errorf("%s: parallel rewrite disagrees:\n--- parallel ---\n%s--- materialized ---\n%s", stmt, got, want)
		}
		if after := optimizer.Render(db.LastPlan); after != renderBefore {
			t.Errorf("%s: LastPlan rendering changed across execution:\n--- before ---\n%s--- after ---\n%s",
				stmt, renderBefore, after)
		}
		selects++
	}
	if selects == 0 {
		t.Fatal("golden script produced no successfully planned SELECTs")
	}
}
