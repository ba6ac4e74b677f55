package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mood/internal/catalog"
	"mood/internal/expr"
	"mood/internal/joinindex"
	"mood/internal/objcache"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/sql"
	"mood/internal/storage"
	"mood/internal/testutil"
)

// TestRandomQueriesDifferential generates random single-variable queries
// over the vehicle database and checks that the optimized, plan-executed
// result matches a brute-force evaluation of the same predicate over the
// extent. This exercises the full stack — parser-equivalent ASTs, DNF,
// dictionary classification, §8.1/8.1/8.2 ordering, all join strategies,
// and the executor — against an oracle that uses none of it.
//
// Three execution legs run per trial: the streaming pipeline (compiled
// predicates), the materializing reference executor, and the
// morsel-parallel rewrite. One leaf shape calls the method lbweight, which
// does not compile: predicates using it keep the streaming path's
// interpreted-expression fallback under test. Halfway through, a
// decoded-object cache is switched on underneath all of them, so the
// second half of the trials covers the cached read path too.
func TestRandomQueriesDifferential(t *testing.T) {
	f := defaultFixture(t)
	rng := rand.New(rand.NewSource(testutil.Seed(t, 20240705)))

	// lbweight is the paper's pounds conversion of the weight attribute
	// (as in the algebra's method-predicate test).
	invoke := func(self object.Value, _ storage.OID, method string, _ []object.Value) (object.Value, error) {
		if method != "lbweight" {
			return object.Null, fmt.Errorf("unknown method %s", method)
		}
		w, _ := self.Field("weight")
		return object.NewInt(int32(float64(w.Int) * 2.2075)), nil
	}
	f.ex.Alg.Invoke = invoke

	// Index the final classes of the name and cylinders paths and register
	// a join index on Vehicle.manufacturer, so selective path predicates
	// plan as an index selection probed backward through the join index.
	for _, ix := range []struct{ name, class, attr string }{
		{"cname", "Company", "name"},
		{"ecyl", "VehicleEngine", "cylinders"},
	} {
		if _, err := f.db.Cat.CreateIndex(ix.name, ix.class, ix.attr, catalog.BTreeIndex, false); err != nil {
			t.Fatal(err)
		}
	}
	vm, err := joinindex.BuildBJI(f.db.Cat, "Vehicle", "manufacturer")
	if err != nil {
		t.Fatal(err)
	}
	f.opt.RegisterBJI("Vehicle", "manufacturer", "vm", vm.CostStats())
	f.ex.BJIs["vm"] = vm
	company := func() object.Value {
		if rng.Intn(8) == 0 {
			return object.NewString("BMW")
		}
		return object.NewString(fmt.Sprintf("company-%06d", rng.Intn(420)))
	}

	// Predicate building blocks over Vehicle v.
	leaves := []func() expr.Expr{
		func() expr.Expr { // atomic on weight
			ops := []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpGt, expr.OpLt, expr.OpGe, expr.OpLe}
			return &expr.Cmp{Op: ops[rng.Intn(len(ops))],
				L: expr.Path("v", "weight"),
				R: &expr.Const{Val: object.NewInt(int32(800 + rng.Intn(2200)))}}
		},
		func() expr.Expr { // atomic on id
			return &expr.Cmp{Op: expr.OpLt,
				L: expr.Path("v", "id"),
				R: &expr.Const{Val: object.NewInt(int32(rng.Intn(400)))}}
		},
		func() expr.Expr { // one-hop path
			return &expr.Cmp{Op: expr.OpEq,
				L: expr.Path("v", "drivetrain", "transmission"),
				R: &expr.Const{Val: object.NewString([]string{"AUTOMATIC", "MANUAL", "CVT", "DCT"}[rng.Intn(4)])}}
		},
		func() expr.Expr { // two-hop path
			ops := []expr.CmpOp{expr.OpEq, expr.OpGt, expr.OpLe}
			return &expr.Cmp{Op: ops[rng.Intn(len(ops))],
				L: expr.Path("v", "drivetrain", "engine", "cylinders"),
				R: &expr.Const{Val: object.NewInt(int32(2 + 2*rng.Intn(16)))}}
		},
		func() expr.Expr { // method call: interpreted on every path
			ops := []expr.CmpOp{expr.OpGt, expr.OpLe, expr.OpNe}
			return &expr.Cmp{Op: ops[rng.Intn(len(ops))],
				L: &expr.Call{Base: &expr.Var{Name: "v"}, Method: "lbweight"},
				R: &expr.Const{Val: object.NewInt(int32(1800 + rng.Intn(4800)))}}
		},
		func() expr.Expr { // indexed final class: the manufacturer's name
			ops := []expr.CmpOp{expr.OpEq, expr.OpEq, expr.OpLt, expr.OpGe}
			return &expr.Cmp{Op: ops[rng.Intn(len(ops))],
				L: expr.Path("v", "manufacturer", "name"), R: &expr.Const{Val: company()}}
		},
		func() expr.Expr { // indexed final class: a name or cylinders BETWEEN
			if rng.Intn(2) == 0 {
				lo := rng.Intn(400)
				return &expr.Between{E: expr.Path("v", "manufacturer", "name"),
					Lo: &expr.Const{Val: object.NewString(fmt.Sprintf("company-%06d", lo))},
					Hi: &expr.Const{Val: object.NewString(fmt.Sprintf("company-%06d", lo+rng.Intn(3)))}}
			}
			lo := int32(2 + 2*rng.Intn(16))
			return &expr.Between{E: expr.Path("v", "drivetrain", "engine", "cylinders"),
				Lo: &expr.Const{Val: object.NewInt(lo)},
				Hi: &expr.Const{Val: object.NewInt(lo + int32(2*rng.Intn(3)))}}
		},
		func() expr.Expr { // BETWEEN on weight
			lo := int32(800 + rng.Intn(1500))
			return &expr.Between{E: expr.Path("v", "weight"),
				Lo: &expr.Const{Val: object.NewInt(lo)},
				Hi: &expr.Const{Val: object.NewInt(lo + int32(rng.Intn(800)))}}
		},
	}
	var build func(depth int) expr.Expr
	build = func(depth int) expr.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			return leaves[rng.Intn(len(leaves))]()
		}
		switch rng.Intn(4) {
		case 0:
			return &expr.Not{E: build(depth - 1)}
		case 1, 2:
			return &expr.Logic{Op: expr.OpAnd, L: build(depth - 1), R: build(depth - 1)}
		default:
			return &expr.Logic{Op: expr.OpOr, L: build(depth - 1), R: build(depth - 1)}
		}
	}

	resolver := f.db.Cat.Resolver()
	backward := 0 // trials planned as an index selection probed through the join index
	for trial := 0; trial < 60; trial++ {
		if trial == 30 {
			// Second half: identical trials over the decoded-object cache.
			// The cache may change decode counts, never rows.
			oc := objcache.New(8 << 20)
			f.db.Cat.SetObjectCache(oc)
			f.db.Cat.Store().SetInvalidator(oc)
		}
		pred := build(3)
		q := &sql.Select{
			Projs: []sql.ProjItem{{Expr: &expr.Var{Name: "v"}}},
			From:  []sql.FromItem{{Class: "Vehicle", Var: "v"}},
			Where: pred,
		}
		plan, _, err := f.opt.Optimize(q)
		if err != nil {
			t.Fatalf("trial %d: optimize %s: %v", trial, pred, err)
		}
		if r := optimizer.Render(plan); strings.Contains(r, "INDSEL(Company") && strings.Contains(r, "BINARY_JOIN_INDEX") {
			backward++
		}
		coll, err := f.ex.Execute(plan)
		if err != nil {
			t.Fatalf("trial %d: execute %s: %v", trial, pred, err)
		}
		// The retained eager executor must agree with the streaming
		// pipeline row for row on the same plan.
		eager, err := f.ex.ExecuteMaterialized(plan)
		if err != nil {
			t.Fatalf("trial %d: materialized execute %s: %v", trial, pred, err)
		}
		assertCollectionsEqual(t, fmt.Sprintf("trial %d: %s", trial, pred), coll, eager)

		// The morsel-driven parallel rewrite of the same plan must produce
		// the identical stream — values and order (run under -race, this is
		// also the executor's main concurrency check).
		pplan := optimizer.Parallelize(plan, 4, -1, f.opt.Stats)
		pcoll, err := f.ex.Execute(pplan)
		if err != nil {
			t.Fatalf("trial %d: parallel execute %s: %v", trial, pred, err)
		}
		assertCollectionsEqual(t, fmt.Sprintf("trial %d (parallel): %s", trial, pred), pcoll, eager)

		// Oracle: evaluate the raw predicate against every vehicle.
		var want []int64
		err = f.db.Cat.ScanExtent("Vehicle", func(oid storage.OID, v object.Value) bool {
			env := &expr.Env{
				Vars:    map[string]object.Value{"v": v},
				OIDs:    map[string]storage.OID{"v": oid},
				Resolve: resolver,
				Invoke:  invoke,
			}
			ok, err := expr.EvalBool(pred, env)
			if err != nil {
				t.Fatalf("trial %d: oracle eval: %v", trial, err)
			}
			if ok {
				id, _ := v.Field("id")
				want = append(want, id.Int)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}

		var got []int64
		for _, row := range coll.Rows {
			b := row.Vars["$result"]
			id, _ := b.Val.Fields[0].Field("id")
			got = append(got, id.Int)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: differential mismatch for\n  %s\nplan rows %d, oracle rows %d",
				trial, pred, len(got), len(want))
		}
	}
	if backward == 0 {
		t.Error("no trial planned an index-selected path segment through the join index")
	}
}
