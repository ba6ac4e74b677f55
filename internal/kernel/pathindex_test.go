package kernel

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mood/internal/exec"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/storage"
	"mood/internal/vehicledb"
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

// TestIndSelKeepsFromClass: an index declared on Vehicle holds the whole
// Vehicle closure, so an index selection over a FROM variable must drop the
// candidates of classes the variable does not range over: a bare FROM class
// is its direct extent, FROM EVERY its closure. Checked against a scan of
// the extents, serial and exchanged, with one index and with two
// (intersected) indexes.
func TestIndSelKeepsFromClass(t *testing.T) {
	cfg := vehicledb.Config{
		Vehicles: 4000, DriveTrains: 2000, Engines: 2000, Companies: 400, Employees: 20,
		Seed: 5, Subclasses: true,
	}
	type vehicle struct {
		class      string
		id, weight int64
	}
	type pred struct {
		sql string
		ok  func(v vehicle) bool
	}
	froms := []struct {
		sql     string
		classes []string
	}{
		{"Vehicle v", []string{"Vehicle"}},
		{"Automobile v", []string{"Automobile"}},
		{"EVERY Vehicle v", vehicleFamily},
		{"EVERY Automobile v", []string{"Automobile", "JapaneseAuto"}},
	}
	for _, par := range []int{0, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Parallelism = par
			db := openVehiclesWith(t, opts, cfg)
			exchangeSmallExtents(db)
			for _, ddl := range []string{"CREATE INDEX vid ON Vehicle(id)", "CREATE INDEX vw ON Vehicle(weight)"} {
				if _, err := db.Execute(ddl); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.RefreshStats(); err != nil {
				t.Fatal(err)
			}
			var all []vehicle
			probe := map[string]int64{} // one id per class
			for _, class := range vehicleFamily {
				if err := db.Cat.ScanExtent(class, func(_ storage.OID, v object.Value) bool {
					id, _ := v.Field("id")
					w, _ := v.Field("weight")
					all = append(all, vehicle{class, id.Int, w.Int})
					probe[class] = id.Int
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
			intersected := false
			// The weight of a JapaneseAuto: selective enough for the two
			// indexes to be intersected, and held by more than one class.
			w := int64(-1)
			for _, v := range all {
				if v.class == "JapaneseAuto" && v.id < 2000 {
					w = v.weight
				}
			}
			preds := []pred{
				{"v.id = %d", nil}, // one query per probed id
				{"v.id < 60", func(v vehicle) bool { return v.id < 60 }},
				{"v.id < 60 AND v.weight > 1500", func(v vehicle) bool { return v.id < 60 && v.weight > 1500 }},
				{fmt.Sprintf("v.id < 2000 AND v.weight = %d", w), func(v vehicle) bool { return v.id < 2000 && v.weight == w }},
			}
			for _, from := range froms {
				in := map[string]bool{}
				for _, c := range from.classes {
					in[c] = true
				}
				for _, p := range preds {
					sqls, oks := []string{p.sql}, []func(vehicle) bool{p.ok}
					if p.ok == nil {
						sqls, oks = nil, nil
						for _, class := range vehicleFamily {
							id := probe[class]
							sqls = append(sqls, fmt.Sprintf(p.sql, id))
							oks = append(oks, func(v vehicle) bool { return v.id == id })
						}
					}
					for i, where := range sqls {
						q := fmt.Sprintf("SELECT v.id FROM %s WHERE %s", from.sql, where)
						res, err := db.Execute(q)
						if err != nil {
							t.Fatalf("%s: %v", q, err)
						}
						var got, want []int64
						for _, row := range res.Rows {
							got = append(got, row[0].Int)
						}
						for _, v := range all {
							if in[v.class] && oks[i](v) {
								want = append(want, v.id)
							}
						}
						sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
						sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
						plan := optimizer.Render(db.LastPlan)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: got ids %v, want %v\n%s", q, got, want, plan)
						}
						if p.ok == nil && !strings.Contains(plan, "INDSEL") {
							t.Errorf("%s: not planned as an index selection:\n%s", q, plan)
						}
						intersected = intersected || strings.Contains(plan, "INTERSECT")
					}
				}
			}
			if !intersected {
				t.Error("no query was planned as an index intersection")
			}
		})
	}
}
