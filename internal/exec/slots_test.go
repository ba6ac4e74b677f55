package exec

import (
	"fmt"
	"reflect"
	"testing"

	"mood/internal/algebra"
	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/sql"
	"mood/internal/storage"
	"mood/internal/vehicledb"
)

// slotBoundaryQueries cross the places where streaming rows leave the slot
// layout or are built beside it: the sort and dup-elim breakers, which
// still run on map-shaped rows; GROUP BY with HAVING, which reads its keys
// from slots and its aliases by name; a UNION whose terms bind different
// path variables, so some of its slots are unbound per row; EVERY/minus
// closures; method calls, which run through the interpreter and read the
// receiver's OID from its slot; and SELECTs of a bare variable, whose
// Result keeps the object's OID.
var slotBoundaryQueries = []string{
	`SELECT v.id, v.weight FROM Vehicle v WHERE v.weight > 2000 ORDER BY v.weight DESC, v.id`,
	`SELECT v.id AS vid, v.manufacturer.name AS maker FROM Vehicle v WHERE v.weight > 2500 ORDER BY maker, vid DESC`,
	`SELECT DISTINCT v.drivetrain.engine.cylinders FROM Vehicle v WHERE v.weight > 1500`,
	`SELECT DISTINCT v FROM Vehicle v WHERE v.drivetrain.transmission = 'MANUAL'`,
	`SELECT v.drivetrain.transmission AS t, COUNT(*) AS n, SUM(v.weight) AS w, MIN(v.manufacturer.name) AS m
		FROM Vehicle v WHERE v.id > 20 GROUP BY v.drivetrain.transmission HAVING n > 5 ORDER BY t`,
	`SELECT v.drivetrain.engine.cylinders AS cyl, COUNT(*) AS n FROM Vehicle v
		GROUP BY v.drivetrain.engine.cylinders HAVING n > 1 AND cyl > 2`,
	`SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 4 OR v.manufacturer.name = 'BMW'`,
	`SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders > 6 OR v.weight < 1200 ORDER BY v.id`,
	`SELECT c.id FROM EVERY Automobile - JapaneseAuto c WHERE c.drivetrain.transmission = 'AUTOMATIC' ORDER BY c.id`,
	`SELECT c FROM EVERY Automobile c WHERE c.weight > 2800`,
	`SELECT v FROM Vehicle v WHERE v.lbweight() > 6000`,
	`SELECT v.id, v.oidparity() AS p FROM Vehicle v WHERE v.oidparity() = 1 AND v.weight > 1800`,
	`SELECT v FROM Vehicle v WHERE v.weight > 2900`,
	`SELECT v FROM Vehicle v, Company c WHERE v.manufacturer = c AND c.name = 'BMW'`,
	`SELECT c FROM Vehicle v, Company c WHERE v.manufacturer = c AND v.weight > 2950`,
}

// TestSlotBoundaryMatchesMaterialized runs the boundary queries serially
// and through the parallel rewrite, holding the streaming collection, the
// Result extracted straight from the row vectors and the cursor's rows
// equal to the materializing executor's, rows and order alike.
func TestSlotBoundaryMatchesMaterialized(t *testing.T) {
	f := setup(t, vehicledb.Config{
		Vehicles: 400, DriveTrains: 200, Engines: 200,
		Companies: 400, Employees: 20, Seed: 5, Subclasses: true,
	})
	f.ex.Alg.Invoke = func(self object.Value, oid storage.OID, method string, _ []object.Value) (object.Value, error) {
		switch method {
		case "lbweight":
			w, _ := self.Field("weight")
			return object.NewInt(int32(float64(w.Int) * 2.2075)), nil
		case "oidparity": // depends on the receiver's OID, not its value
			return object.NewInt(int32(oid & 1)), nil
		}
		return object.Null, fmt.Errorf("unknown method %s", method)
	}
	for _, q := range slotBoundaryQueries {
		plan := f.planFor(t, q)
		eager, err := f.ex.ExecuteMaterialized(plan)
		if err != nil {
			t.Fatalf("materialized execute %s: %v", q, err)
		}
		if len(eager.Rows) == 0 {
			t.Fatalf("%s: no rows; the case checks nothing", q)
		}
		want := Extract(eager)
		for _, leg := range []struct {
			name string
			plan optimizer.Plan
		}{
			{"serial", plan},
			{"exchange", optimizer.Parallelize(plan, 4, -1, f.opt.Stats)},
		} {
			label := q + " (" + leg.name + ")"
			stream, err := f.ex.Execute(leg.plan)
			if err != nil {
				t.Fatalf("%s: streaming execute: %v\nplan:\n%s", label, err, optimizer.Render(leg.plan))
			}
			assertCollectionsEqual(t, label, stream, eager)
			res, err := f.ex.ExecuteResult(leg.plan)
			if err != nil {
				t.Fatalf("%s: ExecuteResult: %v", label, err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: ExecuteResult differs from Extract of the materialized rows:\n%s\nwant\n%s", label, res, want)
			}
			cur, err := f.ex.Compile(leg.plan)
			if err != nil {
				t.Fatal(err)
			}
			if err := cur.Open(); err != nil {
				t.Fatal(err)
			}
			got := Extract(drainCursor(t, cur))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: cursor rows differ from the materialized rows:\n%s\nwant\n%s", label, got, want)
			}
		}
	}
}

// drainCursor collects a cursor's rows under its header and closes it.
func drainCursor(t *testing.T, cur *Cursor) *algebra.Collection {
	t.Helper()
	h := cur.Header()
	out := &algebra.Collection{Kind: h.Kind, Name: h.Name, Class: h.Class}
	for {
		row, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out.Rows = append(out.Rows, row)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// maxAllocsPerRow pins the allocations of the warm forward-traversal
// pipeline below, per emitted row, on the operator fixture: the Company
// decode's two slices and two strings, the RefsOf slice, the projected
// field list and a share of the per-query and per-step buffers. Measured
// at 7.6 on x86-64 with Go 1.24. The map-shaped executor this replaced
// measured 18.7 on the same pipeline; about 8 of those were its row maps
// (one per scanned, joined and projected row) and 3 the attribute-name
// strings that decoding against the catalog's name table now shares.
const maxAllocsPerRow = 8

// TestForwardPipelineAllocsPerRow drives PROJECT(JOIN(SELECT(BIND(Company
// c)), BIND(Employee p), FORWARD_TRAVERSAL)) to the end on a warm buffer
// pool and bounds its allocations per emitted row: rows are slot vectors,
// so neither the scan, the join nor the projection allocates a row of its
// own.
func TestForwardPipelineAllocsPerRow(t *testing.T) {
	const n = 2000
	f := operatorFixture(t, n)
	plan := &optimizer.ProjectPlan{
		Input: &optimizer.JoinPlan{
			Left: &optimizer.SelectPlan{
				Input: &optimizer.BindPlan{Class: "Company", Var: "c"},
				Pred:  &expr.Not{E: companyAt("Tokyo")},
			},
			Right:  &optimizer.BindPlan{Class: "Employee", Var: "p"},
			Method: cost.ForwardTraversal, LeftVar: "c", Attribute: "president", RightVar: "p",
		},
		Items: []sql.ProjItem{{Expr: expr.Path("c", "name")}, {Expr: expr.Path("p", "age"), As: "age"}},
	}
	var b *RowBatch
	rows := 0
	run := func() { // one query: compile, open, drain, close
		root, err := f.ex.compile(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			b = newRowBatch(BatchCapacity, root.lay.Width())
		}
		rows = 0
		if err := root.op.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			k, err := root.op.NextBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				break
			}
			rows += k
		}
		if err := root.op.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the buffer pool and the compiled fragments
	if rows < n/2 {
		t.Fatalf("pipeline emitted %d rows of %d companies", rows, n)
	}
	perRow := testing.AllocsPerRun(5, run) / float64(rows)
	t.Logf("%.2f allocations per row over %d rows", perRow, rows)
	if perRow > maxAllocsPerRow {
		t.Errorf("%.2f allocations per emitted row, want at most %d", perRow, maxAllocsPerRow)
	}
}
