package exec

import (
	"fmt"
	"testing"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/vehicledb"
)

// Batch-boundary edge tests: empty extents, extents landing exactly on and
// either side of BatchCapacity, filtered streams, early Close mid-batch, and
// the root row cursor. These pin the NextBatch contract (n==0 with nil
// error only at end of stream, partial batches only at the end, no more
// reading than the batch needs) at the sizes where off-by-one bugs live.

// batchFixture builds a database whose Company extent has exactly n rows
// (the other extents stay minimal, Employee empty) and returns the fixture.
func batchFixture(t testing.TB, n int) *fixture {
	t.Helper()
	return setup(t, vehicledb.Config{
		Vehicles: 16, DriveTrains: 16, Engines: 16,
		Companies: n, Employees: 0, Seed: 5,
	})
}

// operatorFixture is batchFixture with one Employee — every Company's
// president — and B-tree indexes on Company.name and Company.location, so
// the join, product, union and intersect operators each have an n-row
// stream to produce.
func operatorFixture(t testing.TB, n int) *fixture {
	t.Helper()
	f := setup(t, vehicledb.Config{
		Vehicles: 16, DriveTrains: 16, Engines: 16,
		Companies: n, Employees: 1, Seed: 5,
	})
	for _, attr := range []string{"name", "location"} {
		if _, err := f.db.Cat.CreateIndex("company_"+attr, "Company", attr, catalog.BTreeIndex, false); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func companyAt(loc string) expr.Expr {
	return &expr.Cmp{
		Op: expr.OpEq,
		L:  expr.Path("c", "location"),
		R:  &expr.Const{Val: object.NewString(loc)},
	}
}

// operatorPlans returns one plan per operator the boundary tests cover, all
// over the operatorFixture's Company extent. With tokyo set, every plan
// keeps only the Tokyo companies, filtered inside the operator under test;
// otherwise every plan produces exactly one row per company.
func operatorPlans(f *fixture, tokyo bool) map[string]optimizer.Plan {
	companies := &optimizer.BindPlan{Class: "Company", Var: "c"}
	var left optimizer.Plan = companies
	if tokyo {
		left = &optimizer.SelectPlan{Input: companies, Pred: companyAt("Tokyo")}
	}
	president := &optimizer.BindPlan{Class: "Employee", Var: "p"}
	join := func(m cost.JoinMethod) optimizer.Plan {
		return &optimizer.JoinPlan{Left: left, Right: president, Method: m,
			LeftVar: "c", Attribute: "president", RightVar: "p"}
	}
	indSel := func(attr string, op expr.CmpOp, val string) optimizer.Plan {
		return &optimizer.IndSelPlan{Class: "Company", Var: "c", Index: f.db.Cat.IndexOn("Company", attr),
			Pred: algebra.SimplePredicate{Attribute: attr, Op: op, Constant: object.NewString(val)}}
	}
	second := indSel("location", expr.OpGe, "A")
	if tokyo {
		second = indSel("location", expr.OpEq, "Tokyo")
	}
	return map[string]optimizer.Plan{
		"intersect": &optimizer.IntersectPlan{Inputs: []optimizer.Plan{indSel("name", expr.OpGe, "A"), second}},
		"forward":   join(cost.ForwardTraversal),
		"backward":  join(cost.BackwardTraversal),
		"cross":     &optimizer.CrossPlan{Left: left, Right: president},
		"union":     &optimizer.UnionPlan{Inputs: []optimizer.Plan{left, left}, Vars: []string{"c"}},
	}
}

// drainBatches drives op through NextBatch until end of stream, returning
// every batch size in order (the terminating 0 excluded).
func drainBatches(t *testing.T, op testOp) []int {
	t.Helper()
	var sizes []int
	b := op.batch(BatchCapacity)
	for {
		n, err := op.NextBatch(b)
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if n == 0 {
			// End of stream must be sticky.
			if n2, err := op.NextBatch(b); err != nil || n2 != 0 {
				t.Fatalf("NextBatch after exhaustion = (%d, %v), want (0, nil)", n2, err)
			}
			return sizes
		}
		sizes = append(sizes, n)
	}
}

// testOp is a compiled root operator driven by hand.
type testOp struct {
	Operator
	c *compiled
}

// batch returns an n-row batch of the plan's row width.
func (o testOp) batch(n int) *RowBatch { return newRowBatch(n, o.c.lay.Width()) }

// openOp compiles a plan to its root operator and opens it.
func openOp(t *testing.T, ex *Executor, p optimizer.Plan) testOp {
	t.Helper()
	c, err := ex.compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.op.Open(); err != nil {
		t.Fatal(err)
	}
	return testOp{c.op, c}
}

// TestBatchEmptyExtent: a scan of an empty extent ends immediately — one
// NextBatch call returning (0, nil) — through the bare scan and through the
// fused scan-selection alike.
func TestBatchEmptyExtent(t *testing.T) {
	f := batchFixture(t, 16)
	bind := &optimizer.BindPlan{Class: "Employee", Var: "e"}
	plans := []optimizer.Plan{
		bind,
		&optimizer.SelectPlan{Input: bind, Pred: &expr.Cmp{
			Op: expr.OpEq,
			L:  expr.Path("e", "name"),
			R:  &expr.Const{Val: object.NewString("x")},
		}},
	}
	for _, p := range plans {
		op := openOp(t, f.ex, p)
		if sizes := drainBatches(t, op); len(sizes) != 0 {
			t.Errorf("%s: empty extent produced batches %v", optimizer.Describe(p), sizes)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchCapacityBoundaries: streams of BatchCapacity-1, BatchCapacity,
// and BatchCapacity+1 rows produce full batches with the remainder — and
// only the remainder — in the final batch: the extent scan, and the
// intersect, forward/backward traversal joins, cross product and union
// over an extent of that size.
func TestBatchCapacityBoundaries(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{BatchCapacity - 1, []int{BatchCapacity - 1}},
		{BatchCapacity, []int{BatchCapacity}},
		{BatchCapacity + 1, []int{BatchCapacity, 1}},
		{2*BatchCapacity + 7, []int{BatchCapacity, BatchCapacity, 7}},
	}
	for _, tc := range cases {
		f := operatorFixture(t, tc.n)
		plans := operatorPlans(f, false)
		plans["bind"] = &optimizer.BindPlan{Class: "Company", Var: "c"}
		for name, p := range plans {
			op := openOp(t, f.ex, p)
			sizes := drainBatches(t, op)
			if fmt.Sprint(sizes) != fmt.Sprint(tc.want) {
				t.Fatalf("%s n=%d: batches %v, want %v", name, tc.n, sizes, tc.want)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBatchFilteredNeverZeroMidStream: filtering operators keep pulling
// past filtered-out runs — every batch but the last is full, none is empty,
// and the surviving rows are exactly the predicate's. Covered: the fused
// scan-selection, and the intersect (index recheck), the traversal joins,
// cross product and union fed by a selective input.
func TestBatchFilteredNeverZeroMidStream(t *testing.T) {
	const n = 3*BatchCapacity + 100
	f := operatorFixture(t, n)
	want := 0
	for i := 0; i < n; i++ {
		if i%5 == 2 { // generator cycle: Ankara, Munich, Tokyo, Detroit, Istanbul
			want++
		}
	}
	// location cycles through five cities, so ='Tokyo' keeps every fifth
	// row and survivors straddle many input batches.
	plans := operatorPlans(f, true)
	plans["scan-select"] = &optimizer.SelectPlan{
		Input: &optimizer.BindPlan{Class: "Company", Var: "c"},
		Pred:  companyAt("Tokyo"),
	}
	for name, p := range plans {
		op := openOp(t, f.ex, p)
		sizes := drainBatches(t, op)
		total := 0
		for i, s := range sizes {
			total += s
			if s == 0 {
				t.Fatalf("%s: batch %d is empty mid-stream: %v", name, i, sizes)
			}
			if i < len(sizes)-1 && s != BatchCapacity {
				t.Fatalf("%s: batch %d is short (%d) before end of stream: %v", name, i, s, sizes)
			}
		}
		if total != want {
			t.Fatalf("%s: filtered rows = %d, want %d", name, total, want)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchEarlyCloseReadCounts: abandoning a stream after one full batch
// reads exactly the pages that BatchCapacity one-row batches read — a
// producer must not drag extra pages in beyond the batch it was handed. The
// extent scan, and the intersect, traversal joins, cross product and union
// over a selective input, each over a cold pool.
func TestBatchEarlyCloseReadCounts(t *testing.T) {
	const n = 6 * BatchCapacity // a fifth of it (the Tokyo rows) still fills a batch
	for _, name := range []string{"bind", "intersect", "forward", "backward", "cross", "union"} {
		readsAfter := func(drive func(op testOp)) int64 {
			f := operatorFixture(t, n)
			plans := operatorPlans(f, true)
			plans["bind"] = &optimizer.BindPlan{Class: "Company", Var: "c"}
			if err := f.pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			d := f.pool.Disk()
			d.ResetStats()
			op := openOp(t, f.ex, plans[name])
			drive(op)
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			return d.Stats().Reads()
		}
		batchReads := readsAfter(func(op testOp) {
			got, err := op.NextBatch(op.batch(BatchCapacity))
			if err != nil || got != BatchCapacity {
				t.Fatalf("%s: NextBatch = (%d, %v), want (%d, nil)", name, got, err, BatchCapacity)
			}
		})
		rowReads := readsAfter(func(op testOp) {
			b := op.batch(1)
			for i := 0; i < BatchCapacity; i++ {
				if got, err := op.NextBatch(b); err != nil || got != 1 {
					t.Fatalf("%s: one-row NextBatch %d = (%d, %v)", name, i, got, err)
				}
			}
		})
		if batchReads != rowReads {
			t.Errorf("%s: early close after one batch read %d pages, one row at a time read %d",
				name, batchReads, rowReads)
		}
		if batchReads == 0 {
			t.Errorf("%s: no pages read; the stream measured nothing", name)
		}
	}
}

// TestCursorRoundTrip: the root cursor Compile returns hands out exactly
// Execute's row stream, one row per Next across batch boundaries, under
// Execute's header; exhaustion is sticky and Close is idempotent.
func TestCursorRoundTrip(t *testing.T) {
	const n = 2*BatchCapacity + 200
	f := batchFixture(t, n)
	plan := &optimizer.SelectPlan{
		Input: &optimizer.BindPlan{Class: "Company", Var: "c"},
		Pred:  &expr.Not{E: companyAt("Tokyo")},
	}
	want, err := f.ex.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) <= BatchCapacity {
		t.Fatalf("only %d rows; the cursor never crosses a batch boundary", len(want.Rows))
	}
	cur, err := f.ex.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if h := cur.Header(); h.Kind != want.Kind || h.Name != want.Name || h.Class != want.Class {
		t.Fatalf("cursor header %+v, Execute collection (%v,%q,%q)", h, want.Kind, want.Name, want.Class)
	}
	if err := cur.Open(); err != nil {
		t.Fatal(err)
	}
	got := &algebra.Collection{Kind: want.Kind, Name: want.Name, Class: want.Class}
	for {
		row, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got.Rows = append(got.Rows, row)
	}
	if _, ok, err := cur.Next(); ok || err != nil {
		t.Fatalf("Next after exhaustion = (ok=%v, %v), want (false, nil)", ok, err)
	}
	for i := 0; i < 2; i++ {
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
	assertCollectionsEqual(t, "cursor vs Execute", got, want)
}

// TestParallelPartialBatchMerge is the regression test for the exchange
// merge: worker tasks produce runs whose sizes do not divide BatchCapacity,
// and the merge must keep filling a batch across task boundaries — a short
// batch is legal only at end of stream — while preserving the serial row
// order exactly.
func TestParallelPartialBatchMerge(t *testing.T) {
	const n = 2*BatchCapacity + 452
	f := batchFixture(t, n)
	serial, err := f.ex.Execute(&optimizer.BindPlan{Class: "Company", Var: "c"})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 3, 5} {
		op := openOp(t, f.ex, &optimizer.ExchangePlan{
			Input:   &optimizer.BindPlan{Class: "Company", Var: "c"},
			Workers: workers,
		})
		var got []int64
		var sizes []int
		b := op.batch(BatchCapacity)
		for {
			k, err := op.NextBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				break
			}
			sizes = append(sizes, k)
			for i := 0; i < k; i++ {
				got = append(got, int64(op.c.toRow(b.Row(i)).Vars["c"].OID))
			}
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		for i, s := range sizes {
			if i < len(sizes)-1 && s != BatchCapacity {
				t.Fatalf("workers=%d: batch %d short (%d) before end of stream: %v", workers, i, s, sizes)
			}
		}
		if len(got) != len(serial.Rows) {
			t.Fatalf("workers=%d: %d rows, serial %d", workers, len(got), len(serial.Rows))
		}
		for i, r := range serial.Rows {
			if got[i] != int64(r.Vars["c"].OID) {
				t.Fatalf("workers=%d: row %d OID %d, serial %d", workers, i, got[i], int64(r.Vars["c"].OID))
			}
		}
	}
}
