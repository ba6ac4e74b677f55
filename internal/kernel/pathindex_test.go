package kernel

import (
	"fmt"
	"strings"
	"testing"

	"mood/internal/exec"
	"mood/internal/optimizer"
)

// Index-aware path expansion: the atomic selection over a path's final
// class goes through §8.1's access-path rule, and a join-index join whose
// left side is a bare class bind probes backward from the right rows
// instead of scanning the left extent.

// buildPathIndexes creates attribute indexes on the final classes of the
// suite's path predicates.
func buildPathIndexes(t testing.TB, db *DB) {
	t.Helper()
	for _, ddl := range []string{
		`CREATE INDEX cname ON Company(name)`,
		`CREATE INDEX ecyl ON VehicleEngine(cylinders)`,
	} {
		if _, err := db.Execute(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
}

// indexedPathQueries are path predicates whose final class is indexed
// (=, range and BETWEEN on Company.name and VehicleEngine.cylinders), over
// a plain FROM, FROM EVERY and FROM with a subclass exclusion — the bind
// shapes a join-index join absorbs as its left side. Vehicle i references
// company i, and vehicles come in blocks of four of Vehicle, Automobile,
// Automobile, JapaneseAuto, so company-000005's vehicle is an Automobile
// and company-000013's a JapaneseAuto: the equality queries probe the
// join index for a source the bind must drop or keep.
var indexedPathQueries = []shardQuery{
	{`SELECT v.id FROM Vehicle v WHERE v.manufacturer.name = "company-000042"`, false},
	{`SELECT v.id FROM Vehicle v WHERE v.manufacturer.name = "company-000005"`, false},
	{`SELECT v.id FROM Vehicle v WHERE v.manufacturer.name = "BMW"`, false},
	{`SELECT v.id FROM EVERY Vehicle v WHERE v.manufacturer.name = "company-000005"`, false},
	{`SELECT v.id FROM EVERY Vehicle v WHERE v.manufacturer.name = "company-000013"`, false},
	{`SELECT v.id FROM Vehicle - JapaneseAuto v WHERE v.manufacturer.name = "company-000013"`, false},
	{`SELECT v.id FROM Vehicle - JapaneseAuto v WHERE v.manufacturer.name = "company-000006"`, false},
	{`SELECT v.id FROM EVERY Automobile - JapaneseAuto v WHERE v.manufacturer.name = "company-000009"`, false},
	{`SELECT v.id FROM Vehicle v WHERE v.manufacturer.name < "company-000030"`, false},
	{`SELECT v.id FROM Vehicle v WHERE v.manufacturer.name BETWEEN "company-000100" AND "company-000140"`, false},
	{`SELECT v.id FROM EVERY Vehicle v WHERE v.manufacturer.name BETWEEN "company-000100" AND "company-000180"`, false},
	{`SELECT v.id FROM Vehicle - JapaneseAuto v WHERE v.manufacturer.name < "company-000060"`, false},
	{`SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 4`, false},
	{`SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders < 5`, false},
	{`SELECT v.id FROM EVERY Vehicle v WHERE v.drivetrain.engine.cylinders BETWEEN 4 AND 8`, false},
	{`SELECT d.transmission FROM VehicleDriveTrain d WHERE d.engine.cylinders BETWEEN 6 AND 6`, false},
	{`SELECT v.id FROM Vehicle v WHERE v.manufacturer.name BETWEEN "company-000010" AND "company-000090" AND v.drivetrain.engine.cylinders > 10`, false},
}

// baselineFingerprints runs queries on an unforced single store without any
// index: the rows every indexed, forced or absorbed plan must reproduce.
func baselineFingerprints(t *testing.T, queries []shardQuery) []string {
	t.Helper()
	base := buildShardVehicleDB(t, 0, 0)
	want := make([]string, len(queries))
	nonEmpty := 0
	for i, sq := range queries {
		res, err := base.Execute(sq.q)
		if err != nil {
			t.Fatalf("baseline %q: %v", sq.q, err)
		}
		want[i] = fingerprint(res, sq.ordered)
		if len(res.Rows) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(queries)/2 {
		t.Fatalf("only %d/%d baseline queries returned rows; the wall is too weak", nonEmpty, len(queries))
	}
	return want
}

// TestIndexedPathAbsorbedJoinIndex runs the indexed path predicates
// unforced on shards 1 and 2, serial and parallel, with the attribute
// indexes and the join indices in place. Every result must equal the
// unindexed baseline and the materializing reference interpreter on the
// same plan; the Company.name selections must plan as an INDSEL probed
// backward through the join index, with neither the Company nor the
// Vehicle extent scanned.
func TestIndexedPathAbsorbedJoinIndex(t *testing.T) {
	want := baselineFingerprints(t, indexedPathQueries)
	for _, nshards := range []int{1, 2} {
		for _, par := range []int{0, 4} {
			t.Run(fmt.Sprintf("shards=%d/par=%d", nshards, par), func(t *testing.T) {
				db := buildShardVehicleDB(t, nshards, par)
				buildJoinIndexes(t, db)
				buildPathIndexes(t, db)
				absorbed := 0
				for i, sq := range indexedPathQueries {
					res, err := db.Execute(sq.q)
					if err != nil {
						t.Fatalf("%q: %v", sq.q, err)
					}
					if got := fingerprint(res, sq.ordered); got != want[i] {
						t.Errorf("%q: rows diverge from the unindexed baseline\n--- got ---\n%s--- baseline ---\n%s",
							sq.q, got, want[i])
					}
					ref, err := db.Exec.ExecuteMaterialized(db.LastPlan)
					if err != nil {
						t.Fatalf("%q: reference execute: %v", sq.q, err)
					}
					if got := fingerprint(exec.Extract(ref), sq.ordered); got != want[i] {
						t.Errorf("%q: reference interpreter diverges\n--- reference ---\n%s--- baseline ---\n%s",
							sq.q, got, want[i])
					}
					if !strings.Contains(sq.q, "manufacturer.name = ") {
						continue
					}
					// A selective name: an index selection probed backward
					// through the join index, neither extent scanned.
					plan := optimizer.Render(db.LastPlan)
					if !strings.Contains(plan, "INDSEL(Company, m, cname[btree]") {
						t.Errorf("%q: the Company selection is not index-selected:\n%s", sq.q, plan)
					}
					out, err := db.Execute(`EXPLAIN ANALYZE ` + sq.q)
					if err != nil {
						t.Fatal(err)
					}
					if !absorbedJoinIndex(db.LastAnalyze.Root) {
						t.Errorf("%q: the join index did not absorb the bind:\n%s", sq.q, out.Rows[0][0].Str)
					}
					absorbed++
				}
				if absorbed != 8 {
					t.Errorf("%d absorbed join-index probes, want 8", absorbed)
				}
			})
		}
	}
}

// TestCachedIndexedPathRebinds pins the plan cache over an index-selected
// path segment: the cached INDSEL carries parameter slots for its
// constants, so each execution returns its own rows, not the first
// binding's.
func TestCachedIndexedPathRebinds(t *testing.T) {
	queries := []shardQuery{
		{`SELECT v.id FROM Vehicle v WHERE v.manufacturer.name = "company-000042"`, false},
		{`SELECT v.id FROM Vehicle v WHERE v.manufacturer.name = "company-000017"`, false},
		{`SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders BETWEEN 4 AND 6`, false},
		{`SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders BETWEEN 10 AND 20`, false},
	}
	want := baselineFingerprints(t, queries)
	opts := shardOptions(0, 0)
	opts.PlanCache = true
	db := openVehicleDB(t, opts)
	buildJoinIndexes(t, db)
	buildPathIndexes(t, db)
	for i, sq := range queries {
		res, err := db.Execute(sq.q)
		if err != nil {
			t.Fatalf("%q: %v", sq.q, err)
		}
		if got := fingerprint(res, sq.ordered); got != want[i] {
			t.Errorf("%q: cached plan returned another binding's rows\n--- got ---\n%s--- want ---\n%s",
				sq.q, got, want[i])
		}
		if i == 0 {
			if plan := optimizer.Render(db.LastPlan); !strings.Contains(plan, "INDSEL(Company") {
				t.Errorf("the name selection is not index-selected:\n%s", plan)
			}
		}
	}
	if hits, _ := db.PlanCacheStats(); hits < 2 {
		t.Errorf("plan cache hits = %d, want the second name and the second range served from the cache", hits)
	}
}

// TestParallelIndexedPathSegment runs an index-selected final segment
// under intra-query parallelism with no page threshold: the exchanged
// INDSEL must return the serial rows.
func TestParallelIndexedPathSegment(t *testing.T) {
	queries := []shardQuery{
		{`SELECT v.id, v.manufacturer.name FROM Vehicle v WHERE v.manufacturer.name = "BMW"`, false},
		{`SELECT v.id FROM EVERY Vehicle v WHERE v.manufacturer.name = "company-000007"`, false},
	}
	want := baselineFingerprints(t, queries)
	db := buildShardVehicleDB(t, 0, 4)
	buildPathIndexes(t, db)
	for i, sq := range queries {
		res, err := db.Execute(sq.q)
		if err != nil {
			t.Fatalf("%q: %v", sq.q, err)
		}
		if got := fingerprint(res, sq.ordered); got != want[i] {
			t.Errorf("%q: parallel rows diverge from serial\n--- got ---\n%s--- want ---\n%s", sq.q, got, want[i])
		}
		if !exchangedIndSel(db.LastPlan, "Company") {
			t.Errorf("%q: the final-segment INDSEL is not exchanged:\n%s", sq.q, optimizer.Render(db.LastPlan))
		}
	}
}

// exchangedIndSel reports whether the plan holds an exchange over an INDSEL
// of class.
func exchangedIndSel(p optimizer.Plan, class string) bool {
	if ex, ok := p.(*optimizer.ExchangePlan); ok {
		if is, ok := ex.Input.(*optimizer.IndSelPlan); ok && is.Class == class {
			return true
		}
	}
	for _, k := range optimizer.Children(p) {
		if exchangedIndSel(k, class) {
			return true
		}
	}
	return false
}

// absorbedJoinIndex reports whether the analyzed tree holds a join-index
// join with a single operator input: its left side was absorbed, never
// scanned.
func absorbedJoinIndex(rep *exec.OpReport) bool {
	if rep.Access == "joinindex" && len(rep.Kids) == 1 {
		return true
	}
	for _, k := range rep.Kids {
		if absorbedJoinIndex(k) {
			return true
		}
	}
	return false
}
