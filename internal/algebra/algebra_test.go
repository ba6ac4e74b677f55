package algebra

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/joinindex"
	"mood/internal/object"
	"mood/internal/storage"
	"mood/internal/vehicledb"
)

func buildDB(t testing.TB) (*vehicledb.DB, *Algebra) {
	t.Helper()
	db, _, err := vehicledb.Build(vehicledb.Config{
		Vehicles: 400, DriveTrains: 200, Engines: 200,
		Companies: 400, Employees: 20, Seed: 5,
	}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return db, New(db.Cat)
}

func cmpConst(op expr.CmpOp, path expr.Expr, v object.Value) expr.Expr {
	return &expr.Cmp{Op: op, L: path, R: &expr.Const{Val: v}}
}

// collOfKind builds a collection of each Table 1/2 kind over the same OIDs.
func collOfKind(t *testing.T, a *Algebra, kind Kind, name, class string, oids []storage.OID) *Collection {
	t.Helper()
	switch kind {
	case ExtentKind:
		c := a.BindSet(name, class, oids)
		ext, err := a.AsExtent(c)
		if err != nil {
			t.Fatal(err)
		}
		ext.Kind = ExtentKind
		return ext
	case SetKind:
		return a.BindSet(name, class, oids)
	case ListKind:
		return a.BindList(name, class, oids)
	default:
		c, err := a.BindNamed(name, class, oids[0])
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

func TestSelectReturnTypes(t *testing.T) {
	// Table 1: Extent -> Extent or Set; Set -> Set; List -> List;
	// Named Obj -> Named Obj.
	db, a := buildDB(t)
	truePred := cmpConst(expr.OpGe, expr.Path("x", "id"), object.NewInt(0))
	oids := db.Vehicles[:10]
	cases := []struct {
		in, want Kind
		asSet    bool
	}{
		{ExtentKind, ExtentKind, false},
		{ExtentKind, SetKind, true},
		{SetKind, SetKind, false},
		{ListKind, ListKind, false},
		{NamedObjKind, NamedObjKind, false},
	}
	for _, c := range cases {
		in := collOfKind(t, a, c.in, "x", "Vehicle", oids)
		out, err := a.Select(in, truePred, c.asSet)
		if err != nil {
			t.Fatal(err)
		}
		if out.Kind != c.want {
			t.Errorf("Select(%s) returned %s, want %s (Table 1)", c.in, out.Kind, c.want)
		}
	}
}

func TestSelectSemantics(t *testing.T) {
	db, a := buildDB(t)
	vehicles, err := a.Bind("Vehicle", "v")
	if err != nil {
		t.Fatal(err)
	}
	if vehicles.Len() != 400 {
		t.Fatalf("Bind(Vehicle) = %d rows", vehicles.Len())
	}
	// The paper's path predicate: v.drivetrain.transmission = 'AUTOMATIC'.
	pred := cmpConst(expr.OpEq,
		expr.Path("v", "drivetrain", "transmission"),
		object.NewString("AUTOMATIC"))
	out, err := a.Select(vehicles, pred, false)
	if err != nil {
		t.Fatal(err)
	}
	// Transmissions cycle over 4 values; drivetrains are shared pairwise.
	if out.Len() != 100 {
		t.Errorf("AUTOMATIC vehicles = %d, want 100", out.Len())
	}
	// Verify each survivor.
	for i := range out.Rows {
		b := out.Primary(i)
		v, _, _ := db.Cat.GetObject(b.OID)
		dtRef, _ := v.Field("drivetrain")
		dt, _, _ := db.Cat.GetObject(dtRef.Ref)
		tr, _ := dt.Field("transmission")
		if tr.Str != "AUTOMATIC" {
			t.Fatalf("non-matching row: %s", tr.Str)
		}
	}
}

func TestSelectWithMethodPredicate(t *testing.T) {
	_, a := buildDB(t)
	a.Invoke = func(self object.Value, _ storage.OID, method string, _ []object.Value) (object.Value, error) {
		if method != "lbweight" {
			return object.Null, fmt.Errorf("unknown method %s", method)
		}
		w, _ := self.Field("weight")
		return object.NewInt(int32(float64(w.Int) * 2.2075)), nil
	}
	vehicles, _ := a.Bind("Vehicle", "v")
	pred := cmpConst(expr.OpGt,
		&expr.Call{Base: &expr.Var{Name: "v"}, Method: "lbweight"},
		object.NewInt(4000))
	out, err := a.Select(vehicles, pred, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 || out.Len() == vehicles.Len() {
		t.Errorf("method predicate selected %d of %d", out.Len(), vehicles.Len())
	}
}

func TestIndSel(t *testing.T) {
	db, a := buildDB(t)
	if _, err := db.Cat.CreateIndex("cyl", "VehicleEngine", "cylinders", catalog.BTreeIndex, false); err != nil {
		t.Fatal(err)
	}
	out, err := a.IndSel("VehicleEngine", "e", catalog.BTreeIndex, SimplePredicate{
		Attribute: "cylinders", Op: expr.OpEq, Constant: object.NewInt(4),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != SetKind {
		t.Errorf("IndSel returns %s, want Set (paper: a set of object identifiers)", out.Kind)
	}
	// 200 engines over 16 cylinder values 2..32; cylinders=4 hits i%16==1.
	if out.Len() != 13 {
		t.Errorf("IndSel(=4) = %d, want 13", out.Len())
	}
	// Strict > re-checks against base objects.
	gt, err := a.IndSel("VehicleEngine", "e", catalog.BTreeIndex, SimplePredicate{
		Attribute: "cylinders", Op: expr.OpGt, Constant: object.NewInt(30),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gt.Rows {
		v, _, _ := db.Cat.GetObject(gt.Primary(i).OID)
		c, _ := v.Field("cylinders")
		if c.Int <= 30 {
			t.Fatalf("IndSel(>30) returned cylinders=%d", c.Int)
		}
	}
	// BETWEEN uses a range scan.
	btw, err := a.IndSel("VehicleEngine", "e", catalog.BTreeIndex, SimplePredicate{
		Attribute: "cylinders", Between: true,
		Constant: object.NewInt(4), Constant2: object.NewInt(8),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if btw.Len() != 39 { // cylinders 4,6,8 -> i%16 in {1,2,3}: 13 each
		t.Errorf("IndSel(BETWEEN 4 AND 8) = %d, want 39", btw.Len())
	}
	// Missing index errors.
	if _, err := a.IndSel("VehicleEngine", "e", catalog.HashIndex, SimplePredicate{
		Attribute: "size", Op: expr.OpEq, Constant: object.NewInt(1),
	}, nil); !errors.Is(err, ErrNoIndex) {
		t.Errorf("IndSel without index = %v", err)
	}
}

func TestJoinReturnTypeMatrix(t *testing.T) {
	// Table 2, all 16 combinations.
	db, a := buildDB(t)
	want := map[[2]Kind]Kind{}
	kinds := []Kind{ExtentKind, SetKind, ListKind, NamedObjKind}
	rank := map[Kind]int{ExtentKind: 3, SetKind: 2, ListKind: 1, NamedObjKind: 0}
	for _, k1 := range kinds {
		for _, k2 := range kinds {
			if rank[k1] >= rank[k2] {
				want[[2]Kind{k1, k2}] = k1
			} else {
				want[[2]Kind{k1, k2}] = k2
			}
		}
	}
	// Sanity anchors straight from the printed table.
	if want[[2]Kind{SetKind, ListKind}] != SetKind ||
		want[[2]Kind{NamedObjKind, NamedObjKind}] != NamedObjKind ||
		want[[2]Kind{ListKind, ExtentKind}] != ExtentKind {
		t.Fatal("test matrix disagrees with Table 2")
	}
	// One vehicle and its drivetrain so the named-object cases join.
	v, _, _ := db.Cat.GetObject(db.Vehicles[0])
	dtRef, _ := v.Field("drivetrain")
	for _, k1 := range kinds {
		for _, k2 := range kinds {
			left := collOfKind(t, a, k1, "v", "Vehicle", db.Vehicles[:1])
			right := collOfKind(t, a, k2, "d", "VehicleDriveTrain", []storage.OID{dtRef.Ref})
			out, err := a.Join(left, right, JoinSpec{
				Method: cost.ForwardTraversal, LeftVar: "v", Attribute: "drivetrain", RightVar: "d",
			})
			if err != nil {
				t.Fatalf("join %s×%s: %v", k1, k2, err)
			}
			if out.Kind != want[[2]Kind{k1, k2}] {
				t.Errorf("Join(%s,%s) kind = %s, want %s (Table 2)", k1, k2, out.Kind, want[[2]Kind{k1, k2}])
			}
			if out.Len() != 1 {
				t.Errorf("Join(%s,%s) rows = %d, want 1", k1, k2, out.Len())
			}
		}
	}
}

// rowKey canonicalizes a joined row for cross-method comparison.
func rowKey(r Row) string {
	names := make([]string, 0, len(r.Vars))
	for n := range r.Vars {
		names = append(names, n)
	}
	sort.Strings(names)
	k := ""
	for _, n := range names {
		k += fmt.Sprintf("%s=%v;", n, r.Vars[n].OID)
	}
	return k
}

func TestJoinMethodsAgree(t *testing.T) {
	db, a := buildDB(t)
	bji, err := joinindex.BuildBJI(db.Cat, "Vehicle", "drivetrain")
	if err != nil {
		t.Fatal(err)
	}
	vehicles, _ := a.Bind("Vehicle", "v")
	// Right side: drivetrains with AUTOMATIC transmission.
	dts, _ := a.Bind("VehicleDriveTrain", "d")
	pred := cmpConst(expr.OpEq, expr.Path("d", "transmission"), object.NewString("AUTOMATIC"))
	autodts, err := a.Select(dts, pred, false)
	if err != nil {
		t.Fatal(err)
	}

	var results [5]map[string]bool
	methods := []cost.JoinMethod{
		cost.ForwardTraversal, cost.BackwardTraversal, cost.BinaryJoinIndex,
		cost.HashPartition, cost.FusionJoin,
	}
	for i, m := range methods {
		out, err := a.Join(vehicles, autodts, JoinSpec{
			Method: m, LeftVar: "v", Attribute: "drivetrain", RightVar: "d", Index: bji,
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		results[i] = map[string]bool{}
		for _, r := range out.Rows {
			results[i][rowKey(r)] = true
		}
		// Both variables bound in every result row.
		for _, r := range out.Rows {
			if _, ok := r.Vars["v"]; !ok {
				t.Fatalf("%v: row missing v", m)
			}
			if _, ok := r.Vars["d"]; !ok {
				t.Fatalf("%v: row missing d", m)
			}
		}
	}
	if len(results[0]) == 0 {
		t.Fatal("join produced no rows")
	}
	// 100 AUTOMATIC vehicles expected (50 AUTOMATIC drivetrains × 2).
	if len(results[0]) != 100 {
		t.Errorf("forward join rows = %d, want 100", len(results[0]))
	}
	for i := 1; i < len(methods); i++ {
		if len(results[i]) != len(results[0]) {
			t.Errorf("%v rows = %d, forward = %d", methods[i], len(results[i]), len(results[0]))
			continue
		}
		for k := range results[0] {
			if !results[i][k] {
				t.Errorf("%v missing row %s", methods[i], k)
				break
			}
		}
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	_, a := buildDB(t)
	vehicles, _ := a.Bind("Vehicle", "v")
	dts, _ := a.Bind("VehicleDriveTrain", "d")
	out, err := a.Join(vehicles, dts, JoinSpec{
		Method: cost.HashPartition, LeftVar: "v", Attribute: "drivetrain", RightVar: "d",
		Extra: cmpConst(expr.OpEq, expr.Path("d", "transmission"), object.NewString("MANUAL")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 100 {
		t.Errorf("residual-filtered join = %d, want 100", out.Len())
	}
}

func TestGeneralOperators(t *testing.T) {
	db, a := buildDB(t)
	oid := db.Vehicles[3]
	// Deref + TypeId + typeName composition.
	v, err := a.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.Field("id"); f.Int != 3 {
		t.Errorf("Deref content: %v", f)
	}
	tid, err := a.TypeId(oid)
	if err != nil {
		t.Fatal(err)
	}
	name, err := db.Cat.TypeName(tid)
	if err != nil || name != "Vehicle" {
		t.Errorf("TypeId/typeName = %d/%q", tid, name)
	}
	// isA(path).
	cls, err := a.IsA("Vehicle", []string{"drivetrain", "engine"})
	if err != nil || cls != "VehicleEngine" {
		t.Errorf("IsA = %q %v", cls, err)
	}
	// ObjId is the identity on bindings.
	if a.ObjId(Bound{OID: oid}) != oid {
		t.Error("ObjId broken")
	}
}

func TestProject(t *testing.T) {
	_, a := buildDB(t)
	vehicles, _ := a.Bind("Vehicle", "v")
	out, err := a.Project(vehicles, []ProjItem{
		{Var: "v", Path: []string{"id"}},
		{Var: "v", Path: []string{"drivetrain", "transmission"}, As: "trans"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != ExtentKind {
		t.Errorf("Project kind = %s, want Extent", out.Kind)
	}
	if out.Len() != 400 {
		t.Fatalf("Project rows = %d", out.Len())
	}
	first := out.Rows[0].Vars["v"].Val
	if first.Kind != object.KindTuple || first.Len() != 2 {
		t.Fatalf("projected tuple = %s", first)
	}
	if _, ok := first.Field("trans"); !ok {
		t.Error("renamed projection field missing")
	}
	if _, err := a.Project(vehicles, nil); err == nil {
		t.Error("empty projection accepted")
	}
}

func TestPartition(t *testing.T) {
	_, a := buildDB(t)
	engines, _ := a.Bind("VehicleEngine", "e")
	groups, err := a.Partition(engines, []string{"cylinders"})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 16 {
		t.Fatalf("Partition produced %d groups, want 16", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.Len()
		// All members share the value.
		var want object.Value
		for i := range g.Rows {
			b := g.Rows[i].Vars["e"]
			cyl, _ := b.Val.Field("cylinders")
			if i == 0 {
				want = cyl
			} else if !object.Equal(cyl, want) {
				t.Fatal("mixed group")
			}
		}
	}
	if total != 200 {
		t.Errorf("groups cover %d rows", total)
	}
}

func TestSortHeapMerge(t *testing.T) {
	_, a := buildDB(t)
	vehicles, _ := a.Bind("Vehicle", "v")
	sorted, err := a.Sort(vehicles, []SortKey{{Var: "v", Path: []string{"weight"}}})
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Len() != 400 {
		t.Fatal("sort dropped rows")
	}
	prev := int64(-1 << 62)
	for i := range sorted.Rows {
		sv := sorted.Rows[i].Vars["v"].Val
		w, _ := sv.Field("weight")
		if w.Int < prev {
			t.Fatal("ascending sort violated")
		}
		prev = w.Int
	}
	// Descending, secondary key.
	sorted, err = a.Sort(vehicles, []SortKey{
		{Var: "v", Path: []string{"drivetrain", "transmission"}},
		{Var: "v", Path: []string{"weight"}, Desc: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var prevTr string
	prevW := int64(1 << 62)
	for i := range sorted.Rows {
		v := sorted.Rows[i].Vars["v"].Val
		tr, _ := a.followPath(v, []string{"drivetrain", "transmission"})
		w, _ := v.Field("weight")
		if tr.Str != prevTr {
			if tr.Str < prevTr {
				t.Fatal("primary key order violated")
			}
			prevTr, prevW = tr.Str, int64(1<<62)
		}
		if w.Int > prevW {
			t.Fatal("descending secondary key violated")
		}
		prevW = w.Int
	}
}

func TestSortLargeTriggersMerge(t *testing.T) {
	// More rows than one heap-sort run (1024) to exercise the merge phase.
	cat, _, err := vehicledb.NewEnvironment(2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := vehicledb.DefineSchema(cat); err != nil {
		t.Fatal(err)
	}
	if _, err := vehicledb.Populate(cat, vehicledb.Config{
		Vehicles: 3000, DriveTrains: 10, Engines: 10, Companies: 10, Seed: 9,
	}); err != nil {
		t.Fatal(err)
	}
	a := New(cat)
	vehicles, _ := a.Bind("Vehicle", "v")
	sorted, err := a.Sort(vehicles, []SortKey{{Var: "v", Path: []string{"weight"}, Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(1 << 62)
	for i := range sorted.Rows {
		sv := sorted.Rows[i].Vars["v"].Val
		w, _ := sv.Field("weight")
		if w.Int > prev {
			t.Fatalf("merge phase broke descending order at row %d", i)
		}
		prev = w.Int
	}
}

func TestDupElimReturnTypes(t *testing.T) {
	db, a := buildDB(t)
	// Table 3: Set -> not applicable.
	set := a.BindSet("s", "Vehicle", db.Vehicles[:5])
	if _, err := a.DupElim(set); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("DupElim(Set) = %v, want ErrNotApplicable", err)
	}
	// List -> ordered distinct object identifiers.
	dup := []storage.OID{db.Vehicles[2], db.Vehicles[0], db.Vehicles[2], db.Vehicles[1], db.Vehicles[0]}
	list := a.BindList("l", "Vehicle", dup)
	out, err := a.DupElim(list)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != ListKind || out.Len() != 3 {
		t.Fatalf("DupElim(List) = %s/%d", out.Kind, out.Len())
	}
	oids := out.OIDs()
	if !sort.SliceIsSorted(oids, func(i, j int) bool { return oids[i] < oids[j] }) {
		t.Error("DupElim(List) not ordered")
	}
}

func TestDupElimExtentDeepEquality(t *testing.T) {
	// Two vehicles that are structurally identical through their references
	// but have different OIDs: deep equality must collapse them.
	cat, _, err := vehicledb.NewEnvironment(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := vehicledb.DefineSchema(cat); err != nil {
		t.Fatal(err)
	}
	a := New(cat)
	mkEngine := func() storage.OID {
		oid, err := cat.CreateObject("VehicleEngine", object.NewTuple(
			[]string{"size", "cylinders"},
			[]object.Value{object.NewInt(2000), object.NewInt(8)}))
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	mkDT := func(engine storage.OID) storage.OID {
		oid, err := cat.CreateObject("VehicleDriveTrain", object.NewTuple(
			[]string{"engine", "transmission"},
			[]object.Value{object.NewRef(engine), object.NewString("AUTOMATIC")}))
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	mkVehicle := func(dt storage.OID) storage.OID {
		oid, err := cat.CreateObject("Vehicle", object.NewTuple(
			[]string{"id", "weight", "drivetrain", "manufacturer"},
			[]object.Value{object.NewInt(1), object.NewInt(1000), object.NewRef(dt), object.NewRef(storage.NilOID)}))
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	// v1 and v2 reference *different* but structurally equal drivetrains.
	mkVehicle(mkDT(mkEngine()))
	mkVehicle(mkDT(mkEngine()))
	// v3 differs in cylinder count.
	e3, _ := cat.CreateObject("VehicleEngine", object.NewTuple(
		[]string{"size", "cylinders"},
		[]object.Value{object.NewInt(2000), object.NewInt(12)}))
	mkVehicle(mkDT(e3))

	ext, err := a.Bind("Vehicle", "v")
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.DupElim(ext)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != ExtentKind {
		t.Errorf("DupElim(Extent) kind = %s", out.Kind)
	}
	if out.Len() != 2 {
		t.Errorf("DupElim(Extent) = %d objects, want 2 (deep equality)", out.Len())
	}
}

func TestSetOpReturnTypes(t *testing.T) {
	// Table 4: Set×Set->Set, Set×List->Set, List×List->List.
	db, a := buildDB(t)
	s1 := a.BindSet("x", "Vehicle", db.Vehicles[:4])
	s2 := a.BindSet("y", "Vehicle", db.Vehicles[2:6])
	l1 := a.BindList("x", "Vehicle", db.Vehicles[:4])
	l2 := a.BindList("y", "Vehicle", db.Vehicles[2:6])

	u, err := a.Union(s1, s2)
	if err != nil || u.Kind != SetKind || u.Len() != 6 {
		t.Errorf("Union(Set,Set) = %v/%d %v", u.Kind, u.Len(), err)
	}
	u, err = a.Union(s1, l2)
	if err != nil || u.Kind != SetKind {
		t.Errorf("Union(Set,List) = %v %v", u.Kind, err)
	}
	u, err = a.Union(l1, l2)
	if err != nil || u.Kind != ListKind || u.Len() != 8 {
		t.Errorf("Union(List,List) = %v/%d %v (lists concatenate)", u.Kind, u.Len(), err)
	}
	i, err := a.Intersection(s1, s2)
	if err != nil || i.Kind != SetKind || i.Len() != 2 {
		t.Errorf("Intersection = %v/%d %v", i.Kind, i.Len(), err)
	}
	d, err := a.Difference(s1, s2)
	if err != nil || d.Kind != SetKind || d.Len() != 2 {
		t.Errorf("Difference = %v/%d %v", d.Kind, d.Len(), err)
	}
	// Extents are not valid set-operation arguments.
	ext, _ := a.Bind("Vehicle", "v")
	if _, err := a.Union(ext, s1); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("Union(Extent, Set) = %v", err)
	}
}

func TestAsSetAsList(t *testing.T) {
	// Table 5.
	db, a := buildDB(t)
	ext := collOfKind(t, a, ExtentKind, "v", "Vehicle", db.Vehicles[:5])
	asSet := a.AsSet(ext)
	if asSet.Kind != SetKind || asSet.Len() != 5 {
		t.Errorf("asSet(Extent) = %s/%d", asSet.Kind, asSet.Len())
	}
	asList := a.AsList(ext)
	if asList.Kind != ListKind || asList.Len() != 5 {
		t.Errorf("asList(Extent) = %s/%d", asList.Kind, asList.Len())
	}
	// Duplicates collapse in sets, survive in lists.
	dup := a.BindList("v", "Vehicle", []storage.OID{db.Vehicles[0], db.Vehicles[0]})
	if got := a.AsSet(dup); got.Len() != 1 {
		t.Errorf("asSet dedup = %d", got.Len())
	}
	if got := a.AsList(dup); got.Len() != 2 {
		t.Errorf("asList preserved = %d", got.Len())
	}
	// Named object.
	named, _ := a.BindNamed("n", "Vehicle", db.Vehicles[0])
	if got := a.AsSet(named); got.Len() != 1 || got.Kind != SetKind {
		t.Error("asSet(NamedObj) broken")
	}
}

func TestAsExtent(t *testing.T) {
	// Table 6: set/list -> extent of dereferenced objects.
	db, a := buildDB(t)
	set := a.BindSet("v", "Vehicle", db.Vehicles[:3])
	ext, err := a.AsExtent(set)
	if err != nil || ext.Kind != ExtentKind {
		t.Fatalf("asExtent = %v %v", ext, err)
	}
	for i := range ext.Rows {
		if ev := ext.Rows[i].Vars["v"].Val; ev.IsNull() {
			t.Error("asExtent did not dereference")
		}
	}
	// Extents and named objects are invalid arguments.
	if _, err := a.AsExtent(ext); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("asExtent(Extent) = %v", err)
	}
}

func TestUnnestPaperExample(t *testing.T) {
	// e = {<o1,{o2,o3}>, <o4,{o5}>} => {<o1,o2>, <o1,o3>, <o4,o5>}
	_, a := buildDB(t)
	o := func(i int) object.Value { return object.NewRef(storage.MakeOID(9, 1, storage.SlotID(i))) }
	rows := []Row{
		{Vars: map[string]Bound{"e": {Val: object.NewTuple(
			[]string{"a", "b"},
			[]object.Value{o(1), object.NewSet(o(2), o(3))})}}},
		{Vars: map[string]Bound{"e": {Val: object.NewTuple(
			[]string{"a", "b"},
			[]object.Value{o(4), object.NewSet(o(5))})}}},
	}
	in := &Collection{Kind: ExtentKind, Name: "e", Rows: rows}
	out, err := a.Unnest(in, "b")
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != ExtentKind || out.Len() != 3 {
		t.Fatalf("Unnest = %s/%d, want Extent/3", out.Kind, out.Len())
	}
	// Every output tuple's b is a single reference now.
	for i := range out.Rows {
		ev := out.Rows[i].Vars["e"].Val
		b, _ := ev.Field("b")
		if b.Kind != object.KindReference {
			t.Errorf("unnested b = %s", b.Kind)
		}
	}
	// Nest inverts it.
	nested, err := a.Nest(out, "b")
	if err != nil {
		t.Fatal(err)
	}
	if nested.Len() != 2 {
		t.Fatalf("Nest = %d groups, want 2", nested.Len())
	}
	for i := range nested.Rows {
		ev := nested.Rows[i].Vars["e"].Val
		b, _ := ev.Field("b")
		if b.Kind != object.KindSet {
			t.Errorf("nested b = %s", b.Kind)
		}
	}
	// Errors on atomic attribute.
	if _, err := a.Unnest(in, "a"); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("Unnest(atomic) = %v", err)
	}
}

func TestFlatten(t *testing.T) {
	o := func(i int) object.Value { return object.NewRef(storage.MakeOID(9, 1, storage.SlotID(i))) }
	// Flatten({{oid1,oid2},{oid3}}) = {oid1,oid2,oid3}
	in := object.NewSet(object.NewSet(o(1), o(2)), object.NewSet(o(3)))
	out, err := Flatten(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != object.KindSet || out.Len() != 3 {
		t.Errorf("Flatten = %s/%d", out.Kind, out.Len())
	}
	// Result is always a set, even for list input, and dedups.
	inList := object.NewList(object.NewList(o(1)), object.NewList(o(1), o(2)))
	out, err = Flatten(inList)
	if err != nil || out.Kind != object.KindSet || out.Len() != 2 {
		t.Errorf("Flatten(list) = %s/%d %v", out.Kind, out.Len(), err)
	}
	if _, err := Flatten(object.NewInt(1)); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("Flatten(atomic) = %v", err)
	}
}

func TestBindWithMinus(t *testing.T) {
	// The paper's FROM clause: EVERY Automobile - JapaneseAuto.
	cat, _, err := vehicledb.NewEnvironment(512)
	if err != nil {
		t.Fatal(err)
	}
	if err := vehicledb.DefineSchema(cat); err != nil {
		t.Fatal(err)
	}
	if _, err := vehicledb.Populate(cat, vehicledb.Config{
		Vehicles: 100, DriveTrains: 50, Engines: 50, Companies: 100,
		Seed: 2, Subclasses: true,
	}); err != nil {
		t.Fatal(err)
	}
	a := New(cat)
	all, err := a.Bind("Automobile", "c")
	if err != nil {
		t.Fatal(err)
	}
	minus, err := a.Bind("Automobile", "c", "JapaneseAuto")
	if err != nil {
		t.Fatal(err)
	}
	japanese, _ := a.Bind("JapaneseAuto", "c")
	if minus.Len()+japanese.Len() != all.Len() {
		t.Errorf("minus: %d + %d != %d", minus.Len(), japanese.Len(), all.Len())
	}
	if japanese.Len() == 0 {
		t.Fatal("no JapaneseAuto instances generated")
	}
}

func TestUnionRows(t *testing.T) {
	db, a := buildDB(t)
	x := a.BindSet("v", "Vehicle", db.Vehicles[:3])
	y := a.BindSet("v", "Vehicle", db.Vehicles[1:5])
	out := a.UnionRows(x, y)
	if out.Len() != 5 {
		t.Errorf("UnionRows = %d rows, want 5 (identical bindings collapse)", out.Len())
	}
	// Rows with extra bindings are distinct from bare ones.
	z := &Collection{Kind: SetKind, Name: "v", Class: "Vehicle"}
	z.Rows = append(z.Rows, Row{Vars: map[string]Bound{
		"v": {OID: db.Vehicles[0]},
		"d": {OID: db.DriveTrains[0]},
	}})
	out = a.UnionRows(x, z)
	if out.Len() != 4 {
		t.Errorf("UnionRows with extra binding = %d rows, want 4", out.Len())
	}
}
