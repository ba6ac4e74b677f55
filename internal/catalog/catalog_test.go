package catalog

import (
	"errors"
	"fmt"
	"testing"

	"mood/internal/object"
	"mood/internal/storage"
)

func newCatalog(t testing.TB) *Catalog {
	t.Helper()
	disk := storage.NewDiskSim(storage.DefaultDiskParams())
	bp := storage.NewBufferPool(disk, 256)
	fm, err := storage.NewFileManager(bp)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(storage.NewObjectStore(bp, fm))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// defineVehicleSchema builds the paper's Section 3.1 example schema.
func defineVehicleSchema(t testing.TB, c *Catalog) {
	t.Helper()
	mustDefine := func(name string, tuple *object.Type, supers []string, methods []*MethodSig) {
		t.Helper()
		if _, err := c.DefineClass(name, tuple, supers, methods); err != nil {
			t.Fatalf("define %s: %v", name, err)
		}
	}
	mustDefine("VehicleEngine", object.TupleOf(
		object.Field{Name: "size", Type: object.TInteger},
		object.Field{Name: "cylinders", Type: object.TInteger},
	), nil, nil)
	mustDefine("VehicleDriveTrain", object.TupleOf(
		object.Field{Name: "engine", Type: object.RefTo("VehicleEngine")},
		object.Field{Name: "transmission", Type: object.StringN(32)},
	), nil, nil)
	mustDefine("Employee", object.TupleOf(
		object.Field{Name: "ssno", Type: object.TInteger},
		object.Field{Name: "name", Type: object.StringN(32)},
		object.Field{Name: "age", Type: object.TInteger},
	), nil, nil)
	mustDefine("Company", object.TupleOf(
		object.Field{Name: "name", Type: object.StringN(32)},
		object.Field{Name: "location", Type: object.StringN(32)},
		object.Field{Name: "president", Type: object.RefTo("Employee")},
	), nil, nil)
	mustDefine("Vehicle", object.TupleOf(
		object.Field{Name: "id", Type: object.TInteger},
		object.Field{Name: "weight", Type: object.TInteger},
		object.Field{Name: "drivetrain", Type: object.RefTo("VehicleDriveTrain")},
		object.Field{Name: "manufacturer", Type: object.RefTo("Company")},
	), nil, []*MethodSig{
		{Name: "lbweight", ReturnType: object.TInteger},
		{Name: "weight", ReturnType: object.TInteger},
	})
	mustDefine("Automobile", object.TupleOf(), []string{"Vehicle"}, nil)
	mustDefine("JapaneseAuto", object.TupleOf(), []string{"Automobile"}, nil)
}

func TestDefineAndLookup(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	cl, err := c.Class("Vehicle")
	if err != nil {
		t.Fatal(err)
	}
	if !cl.IsClass || cl.Extent() == nil {
		t.Error("Vehicle should be a class with an extent")
	}
	id, err := c.TypeID("Vehicle")
	if err != nil {
		t.Fatal(err)
	}
	name, err := c.TypeName(id)
	if err != nil || name != "Vehicle" {
		t.Errorf("TypeName(TypeID) roundtrip: %q %v", name, err)
	}
	if _, err := c.Class("Spaceship"); !errors.Is(err, ErrNoSuchClass) {
		t.Errorf("missing class: %v", err)
	}
	if _, err := c.DefineClass("Vehicle", object.TupleOf(), nil, nil); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate define: %v", err)
	}
	if _, err := c.DefineClass("Bad", object.TupleOf(), []string{"Nope"}, nil); !errors.Is(err, ErrNoSuchClass) {
		t.Errorf("unknown superclass: %v", err)
	}
}

func TestTypesVsClasses(t *testing.T) {
	c := newCatalog(t)
	ty, err := c.DefineType("Address", object.TupleOf(
		object.Field{Name: "street", Type: object.TString},
	))
	if err != nil {
		t.Fatal(err)
	}
	if ty.IsClass || ty.Extent() != nil {
		t.Error("type must have no extent")
	}
	if _, err := c.CreateObject("Address", object.NewTuple([]string{"street"}, []object.Value{object.NewString("x")})); err == nil {
		t.Error("CreateObject on a type succeeded")
	}
	if _, err := c.DefineClass("Sub", object.TupleOf(), []string{"Address"}, nil); err == nil {
		t.Error("inheriting from a type succeeded")
	}
}

func TestInheritance(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	if !c.IsA("JapaneseAuto", "Vehicle") || !c.IsA("Automobile", "Vehicle") {
		t.Error("IsA transitive failed")
	}
	if c.IsA("Vehicle", "Automobile") {
		t.Error("IsA inverted")
	}
	if !c.IsA("Vehicle", "Vehicle") {
		t.Error("IsA not reflexive")
	}
	closure, err := c.Closure("Vehicle")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Vehicle", "Automobile", "JapaneseAuto"}
	if len(closure) != 3 || closure[0] != want[0] {
		t.Errorf("Closure = %v", closure)
	}
	subs := c.Subclasses("Vehicle")
	if len(subs) != 1 || subs[0] != "Automobile" {
		t.Errorf("Subclasses = %v", subs)
	}
	// Inherited attributes visible on the subclass.
	ty, err := c.AttributeType("JapaneseAuto", "weight")
	if err != nil || ty.Kind != object.KindInteger {
		t.Errorf("inherited attribute: %v %v", ty, err)
	}
	attrs, err := c.AllAttributes("JapaneseAuto")
	if err != nil || len(attrs) != 4 {
		t.Errorf("AllAttributes = %v (%v)", attrs, err)
	}
	// Inherited methods.
	m, err := c.Method("JapaneseAuto", "lbweight")
	if err != nil || m.Class != "Vehicle" {
		t.Errorf("inherited method: %+v %v", m, err)
	}
}

func TestMultipleInheritance(t *testing.T) {
	c := newCatalog(t)
	c.DefineClass("A", object.TupleOf(object.Field{Name: "x", Type: object.TInteger}), nil, nil)
	c.DefineClass("B", object.TupleOf(
		object.Field{Name: "x", Type: object.TString}, // conflicts with A.x
		object.Field{Name: "y", Type: object.TFloat},
	), nil, nil)
	c.DefineClass("C", object.TupleOf(object.Field{Name: "z", Type: object.TBoolean}), []string{"A", "B"}, nil)
	attrs, err := c.AllAttributes("C")
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 3 { // x (from A, first path wins), y, z
		t.Fatalf("AllAttributes(C) = %v", attrs)
	}
	ty, _ := c.AttributeType("C", "x")
	if ty.Kind != object.KindInteger {
		t.Errorf("diamond conflict resolution: x is %s, want Integer (leftmost path)", ty)
	}
	if !c.IsA("C", "A") || !c.IsA("C", "B") {
		t.Error("multiple IsA broken")
	}
}

func vehicleValue(id, weight int32, dt, mf storage.OID) object.Value {
	return object.NewTuple(
		[]string{"id", "weight", "drivetrain", "manufacturer"},
		[]object.Value{object.NewInt(id), object.NewInt(weight), object.NewRef(dt), object.NewRef(mf)},
	)
}

func TestObjectCRUDAndExtent(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	oid, err := c.CreateObject("Vehicle", vehicleValue(1, 2000, storage.NilOID, storage.NilOID))
	if err != nil {
		t.Fatal(err)
	}
	v, class, err := c.GetObject(oid)
	if err != nil || class != "Vehicle" {
		t.Fatalf("GetObject: %v %q", err, class)
	}
	if f, _ := v.Field("weight"); f.Int != 2000 {
		t.Errorf("weight = %v", f)
	}
	// Type checking on create.
	bad := object.NewTuple([]string{"weight"}, []object.Value{object.NewString("heavy")})
	if _, err := c.CreateObject("Vehicle", bad); err == nil {
		t.Error("mistyped object accepted")
	}
	// Update.
	v.SetField("weight", object.NewInt(2500))
	if err := c.UpdateObject(oid, v); err != nil {
		t.Fatal(err)
	}
	v2, _, _ := c.GetObject(oid)
	if f, _ := v2.Field("weight"); f.Int != 2500 {
		t.Error("update lost")
	}
	// Extent counting.
	n, _ := c.ExtentCount("Vehicle")
	if n != 1 {
		t.Errorf("ExtentCount = %d", n)
	}
	// Delete.
	if err := c.DeleteObject(oid); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetObject(oid); err == nil {
		t.Error("deleted object readable")
	}
}

func TestScanClosureWithMinus(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	mk := func(class string, id int32) storage.OID {
		oid, err := c.CreateObject(class, vehicleValue(id, 1000+id, storage.NilOID, storage.NilOID))
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	mk("Vehicle", 1)
	mk("Automobile", 2)
	mk("Automobile", 3)
	mk("JapaneseAuto", 4)

	count := func(class string, minus []string) int {
		n := 0
		if err := c.ScanClosure(class, minus, func(storage.OID, object.Value) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count("Vehicle", nil); got != 4 {
		t.Errorf("EVERY Vehicle = %d, want 4", got)
	}
	// The paper's query: EVERY Automobile - JapaneseAuto.
	if got := count("Automobile", []string{"JapaneseAuto"}); got != 2 {
		t.Errorf("EVERY Automobile - JapaneseAuto = %d, want 2", got)
	}
	if got := count("JapaneseAuto", nil); got != 1 {
		t.Errorf("EVERY JapaneseAuto = %d, want 1", got)
	}
	if got := count("Vehicle", []string{"Automobile"}); got != 1 {
		t.Errorf("EVERY Vehicle - Automobile = %d, want 1 (exclusion must remove the subtree)", got)
	}
}

func TestIndexesMaintained(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	var oids []storage.OID
	for i := int32(0); i < 100; i++ {
		oid, err := c.CreateObject("Vehicle", vehicleValue(i, 1000+i%10, storage.NilOID, storage.NilOID))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	// Backfill on creation.
	ix, err := c.CreateIndex("vehicle_weight", "Vehicle", "weight", BTreeIndex, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Lookup(object.NewInt(1003))
	if err != nil || len(got) != 10 {
		t.Fatalf("Lookup(1003) = %d oids (%v), want 10", len(got), err)
	}
	// Range lookup.
	rng, err := ix.RangeLookup(object.NewInt(1000), object.NewInt(1002))
	if err != nil || len(rng) != 30 {
		t.Fatalf("RangeLookup = %d (%v), want 30", len(rng), err)
	}
	// Maintenance on insert.
	c.CreateObject("Vehicle", vehicleValue(200, 1003, storage.NilOID, storage.NilOID))
	got, _ = ix.Lookup(object.NewInt(1003))
	if len(got) != 11 {
		t.Errorf("after insert: %d", len(got))
	}
	// Maintenance on update.
	v, _, _ := c.GetObject(oids[3]) // weight 1003
	v.SetField("weight", object.NewInt(9999))
	if err := c.UpdateObject(oids[3], v); err != nil {
		t.Fatal(err)
	}
	got, _ = ix.Lookup(object.NewInt(1003))
	if len(got) != 10 {
		t.Errorf("after update: %d", len(got))
	}
	if got, _ = ix.Lookup(object.NewInt(9999)); len(got) != 1 {
		t.Errorf("updated key missing: %d", len(got))
	}
	// Maintenance on delete.
	if err := c.DeleteObject(oids[3]); err != nil {
		t.Fatal(err)
	}
	if got, _ = ix.Lookup(object.NewInt(9999)); len(got) != 0 {
		t.Errorf("after delete: %d", len(got))
	}
	// Hash index coexists; IndexOn prefers the B+ tree.
	if _, err := c.CreateIndex("vehicle_weight_h", "Vehicle", "weight", HashIndex, false); err != nil {
		t.Fatal(err)
	}
	if best := c.IndexOn("Vehicle", "weight"); best == nil || best.Kind != BTreeIndex {
		t.Errorf("IndexOn preference: %+v", best)
	}
}

func TestIndexOnInheritedAttribute(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	// Index declared on Vehicle.weight serves Automobile instances too.
	c.CreateObject("Automobile", vehicleValue(1, 1234, storage.NilOID, storage.NilOID))
	ix, err := c.CreateIndex("w", "Vehicle", "weight", BTreeIndex, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ix.Lookup(object.NewInt(1234))
	if len(got) != 1 {
		t.Fatalf("subclass instance not in superclass index: %d", len(got))
	}
	// New subclass instance maintained.
	c.CreateObject("JapaneseAuto", vehicleValue(2, 1234, storage.NilOID, storage.NilOID))
	got, _ = ix.Lookup(object.NewInt(1234))
	if len(got) != 2 {
		t.Errorf("subclass insert not indexed: %d", len(got))
	}
	if c.IndexOn("JapaneseAuto", "weight") == nil {
		t.Error("IndexOn does not see superclass index from subclass")
	}
}

func TestPersistReopen(t *testing.T) {
	disk := storage.NewDiskSim(storage.DefaultDiskParams())
	bp := storage.NewBufferPool(disk, 256)
	fm, _ := storage.NewFileManager(bp)
	store := storage.NewObjectStore(bp, fm)
	c, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	defineVehicleSchema(t, c)
	oid, err := c.CreateObject("Vehicle", vehicleValue(7, 1500, storage.NilOID, storage.NilOID))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("w", "Vehicle", "weight", BTreeIndex, false); err != nil {
		t.Fatal(err)
	}
	bp.FlushAll()

	// Reopen over the same disk.
	bp2 := storage.NewBufferPool(disk, 256)
	fm2, err := storage.OpenFileManager(bp2, fm.DirPage())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Open(storage.NewObjectStore(bp2, fm2))
	if err != nil {
		t.Fatal(err)
	}
	if !c2.IsA("JapaneseAuto", "Vehicle") {
		t.Error("hierarchy lost on reopen")
	}
	m, err := c2.Method("Automobile", "lbweight")
	if err != nil || m.Class != "Vehicle" {
		t.Errorf("methods lost: %v %v", m, err)
	}
	v, class, err := c2.GetObject(oid)
	if err != nil || class != "Vehicle" {
		t.Fatalf("object lost: %v %q", err, class)
	}
	if f, _ := v.Field("id"); f.Int != 7 {
		t.Error("object content lost")
	}
	ix := c2.IndexOn("Vehicle", "weight")
	if ix == nil {
		t.Fatal("index metadata lost")
	}
	got, err := ix.Lookup(object.NewInt(1500))
	if err != nil || len(got) != 1 || got[0] != oid {
		t.Errorf("rebuilt index broken: %v %v", got, err)
	}
}

func TestDropClass(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	if err := c.DropClass("Vehicle"); err == nil {
		t.Error("dropping class with subclasses succeeded")
	}
	if err := c.DropClass("JapaneseAuto"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Class("JapaneseAuto"); err == nil {
		t.Error("dropped class still visible")
	}
	if err := c.DropClass("JapaneseAuto"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestIsAPath(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	// isA(Vehicle.drivetrain.engine) = VehicleEngine
	got, err := c.IsAPath("Vehicle", []string{"drivetrain", "engine"})
	if err != nil || got != "VehicleEngine" {
		t.Errorf("IsAPath = %q %v", got, err)
	}
	// Terminating at an atomic attribute returns its type.
	got, err = c.IsAPath("Vehicle", []string{"drivetrain", "engine", "cylinders"})
	if err != nil || got != "Integer" {
		t.Errorf("IsAPath atomic tail = %q %v", got, err)
	}
	// Atomic mid-path is an error.
	if _, err := c.IsAPath("Vehicle", []string{"weight", "engine"}); err == nil {
		t.Error("atomic mid-path accepted")
	}
	if _, err := c.IsAPath("Vehicle", []string{"nope"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestMethodSignature(t *testing.T) {
	m := &MethodSig{
		Class:      "Car",
		Name:       "CalculatePrice",
		ParamNames: []string{"Price", "ExchangeRate"},
		ParamTypes: []*object.Type{object.TInteger, object.TInteger},
		ReturnType: object.TInteger,
	}
	want := "Car::CalculatePrice(Integer,Integer)"
	if got := m.Signature(); got != want {
		t.Errorf("Signature = %q, want %q", got, want)
	}
}

func TestLargeExtent(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := c.CreateObject("Vehicle", vehicleValue(int32(i), int32(i%50), storage.NilOID, storage.NilOID)); err != nil {
			t.Fatal(err)
		}
	}
	cnt, _ := c.ExtentCount("Vehicle")
	if cnt != n {
		t.Errorf("ExtentCount = %d", cnt)
	}
	pages, _ := c.ExtentPages("Vehicle")
	if pages < 10 {
		t.Errorf("ExtentPages = %d, suspiciously small", pages)
	}
	seen := 0
	c.ScanExtent("Vehicle", func(storage.OID, object.Value) bool { seen++; return true })
	if seen != n {
		t.Errorf("scan saw %d", seen)
	}
}

func ExampleCatalog_IsAPath() {
	disk := storage.NewDiskSim(storage.DefaultDiskParams())
	bp := storage.NewBufferPool(disk, 64)
	fm, _ := storage.NewFileManager(bp)
	c, _ := New(storage.NewObjectStore(bp, fm))
	c.DefineClass("VehicleEngine", object.TupleOf(object.Field{Name: "cylinders", Type: object.TInteger}), nil, nil)
	c.DefineClass("Vehicle", object.TupleOf(object.Field{Name: "engine", Type: object.RefTo("VehicleEngine")}), nil, nil)
	cls, _ := c.IsAPath("Vehicle", []string{"engine"})
	fmt.Println(cls)
	// Output: VehicleEngine
}

// TestUpdateMaintainsOnlyChangedKeys: an update that leaves an index's key
// alone does not touch that index (the entry keeps its place among its
// duplicates); one that changes the key, to or from null included, moves it.
func TestUpdateMaintainsOnlyChangedKeys(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	var oids []storage.OID
	for i := int32(0); i < 40; i++ {
		oid, err := c.CreateObject("Vehicle", vehicleValue(i, 1000+i%4, storage.NilOID, storage.NilOID))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	ix, err := c.CreateIndex("vw", "Vehicle", "weight", BTreeIndex, false)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := c.CreateIndex("vid", "Vehicle", "id", HashIndex, true)
	if err != nil {
		t.Fatal(err)
	}
	update := func(oid storage.OID, attr string, val object.Value) {
		t.Helper()
		v, _, err := c.GetObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		v = v.Clone()
		v.SetField(attr, val)
		if err := c.UpdateObject(oid, v); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := ix.Lookup(object.NewInt(1001))
	update(oids[5], "id", object.NewInt(500)) // weight key unchanged
	after, _ := ix.Lookup(object.NewInt(1001))
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Errorf("an update leaving weight alone reordered its duplicates: %v -> %v", before, after)
	}
	if got, _ := hx.Lookup(object.NewInt(500)); len(got) != 1 || got[0] != oids[5] {
		t.Errorf("changed hash key not moved: %v", got)
	}
	if got, _ := hx.Lookup(object.NewInt(5)); len(got) != 0 {
		t.Errorf("old hash key still indexed: %v", got)
	}
	n := ix.BTree().Len()
	update(oids[5], "weight", object.Null)
	if got, _ := ix.Lookup(object.NewInt(1001)); len(got) != len(before)-1 || ix.BTree().Len() != n-1 {
		t.Errorf("weight -> null: %d duplicates, %d entries", len(got), ix.BTree().Len())
	}
	update(oids[5], "weight", object.NewInt(1001))
	if got, _ := ix.Lookup(object.NewInt(1001)); len(got) != len(before) || ix.BTree().Len() != n {
		t.Errorf("null -> weight: %d duplicates, %d entries", len(got), ix.BTree().Len())
	}
}

// TestMutationCounters: a class's counter moves once per create, update and
// delete on its own extent, and only there; the schema version moves with
// every definition and drop.
func TestMutationCounters(t *testing.T) {
	c := newCatalog(t)
	defineVehicleSchema(t, c)
	vehicle, _ := c.Class("Vehicle")
	company, _ := c.Class("Company")
	schema := c.SchemaVersion()
	oid, err := c.CreateObject("Vehicle", vehicleValue(1, 1000, storage.NilOID, storage.NilOID))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateObject(oid, vehicleValue(1, 1001, storage.NilOID, storage.NilOID)); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteObject(oid); err != nil {
		t.Fatal(err)
	}
	if vehicle.Mutations() != 3 || company.Mutations() != 0 {
		t.Errorf("mutations: Vehicle %d (want 3), Company %d (want 0)", vehicle.Mutations(), company.Mutations())
	}
	if c.SchemaVersion() != schema {
		t.Error("object writes moved the schema version")
	}
	if _, err := c.DefineClass("Truck", object.TupleOf(), []string{"Vehicle"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.DropClass("Truck"); err != nil {
		t.Fatal(err)
	}
	if c.SchemaVersion() != schema+2 {
		t.Errorf("schema version moved %d times over a define and a drop, want 2", c.SchemaVersion()-schema)
	}
}
