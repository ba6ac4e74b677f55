package optimizer

import (
	"strings"
	"testing"

	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/object"
	"mood/internal/sql"
)

// indexedCatalog is the vehicle schema with B+-tree indexes on the final
// classes of Example 8.1's paths.
func indexedCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := schemaCatalog(t)
	for _, ix := range []struct{ name, class, attr string }{
		{"cname", "Company", "name"},
		{"ecyl", "VehicleEngine", "cylinders"},
	} {
		if _, err := cat.CreateIndex(ix.name, ix.class, ix.attr, catalog.BTreeIndex, false); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

const example81 = `Select v From Vehicle v
	where v.manufacturer.name = 'BMW' and v.drivetrain.engine.cylinders = 2`

// TestPathSelectionUsesIndex: §8.1's rule plans the atomic selection over a
// path's final class, so the selective name predicate becomes an INDSEL,
// and a predicate the index does not pay for stays SELECT(BIND).
func TestPathSelectionUsesIndex(t *testing.T) {
	o := New(indexedCatalog(t), paperStats())
	plan, _, err := o.Optimize(mustParse(t, example81))
	if err != nil {
		t.Fatal(err)
	}
	r := Render(plan)
	if !strings.Contains(r, `INDSEL(Company, m, cname[btree], m.name = "BMW")`) || strings.Contains(r, "BIND(Company") {
		t.Errorf("the name selection is not index-selected:\n%s", r)
	}
	plan, _, err = o.Optimize(mustParse(t, `Select v From Vehicle v where v.drivetrain.engine.cylinders > 2`))
	if err != nil {
		t.Fatal(err)
	}
	if r := Render(plan); strings.Contains(r, "INDSEL") || !strings.Contains(r, "BIND(VehicleEngine, e)") {
		t.Errorf("a non-selective range used the index:\n%s", r)
	}
}

// TestPathIndexMustHoldTheExtent: a path segment binds its final class's
// direct extent, while an index holds its class's IS-A closure; an index
// serves the segment only when the two coincide.
func TestPathIndexMustHoldTheExtent(t *testing.T) {
	cat := schemaCatalog(t)
	if _, err := cat.DefineClass("Fleet", object.TupleOf(
		object.Field{Name: "car", Type: object.RefTo("Vehicle")},
		object.Field{Name: "auto", Type: object.RefTo("Automobile")},
	), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("vweight", "Vehicle", "weight", catalog.BTreeIndex, false); err != nil {
		t.Fatal(err)
	}
	st := paperStats()
	st.SetClass(cost.ClassStats{Name: "Fleet", Card: 100, NbPages: 5, Size: 40})
	st.SetClass(cost.ClassStats{Name: "Automobile", Card: 20000, NbPages: 2000, Size: 400})
	st.SetAttr(cost.AttrStats{Class: "Automobile", Attribute: "weight", Dist: 2000, Max: 3000, Min: 800, NotNull: 1})
	st.SetAttr(cost.AttrStats{Class: "Vehicle", Attribute: "weight", Dist: 2000, Max: 3000, Min: 800, NotNull: 1})
	for _, a := range []string{"car", "auto"} {
		st.SetLink(cost.LinkStats{Class: "Fleet", Attribute: a, Target: "Vehicle",
			Fan: 1, TotRef: 100, TargetCard: 20000, NotNull: 1})
	}
	o := New(cat, st)
	for _, q := range []string{
		// Vehicle has subclasses: the index holds more than BIND(Vehicle).
		`Select f From Fleet f where f.car.weight = 1000`,
		// The index is Vehicle's; the segment binds Automobile.
		`Select f From Fleet f where f.auto.weight = 1000`,
	} {
		plan, _, err := o.Optimize(mustParse(t, q))
		if err != nil {
			t.Fatal(err)
		}
		if r := Render(plan); strings.Contains(r, "INDSEL") {
			t.Errorf("%s: the segment used an index that does not hold its extent:\n%s", q, r)
		}
	}
	// The same predicate on the FROM variable does use it (§8.1 as before).
	plan, _, err := o.Optimize(mustParse(t, `Select v From Vehicle v where v.weight = 1000`))
	if err != nil {
		t.Fatal(err)
	}
	if r := Render(plan); !strings.Contains(r, "INDSEL(Vehicle") {
		t.Errorf("the FROM variable's selection lost its index:\n%s", r)
	}
}

// TestBackwardRegime: with a join index on the hop and an index-selected
// target, the one-hop path joins through the join index from its bare
// Vehicle bind, and Algorithm 8.1 orders it by min(F, F_backward).
func TestBackwardRegime(t *testing.T) {
	cat := indexedCatalog(t)
	bji := cost.BTreeStats{Order: 200, Levels: 2, Leaves: 100}
	// Without the join index the engine path from the smaller
	// VehicleDriveTrain extent ranks first; with it the name path does.
	const q = `Select v From Vehicle v, VehicleDriveTrain d
		where v.manufacturer.name = 'BMW' and d.engine.cylinders = 2`
	for _, withBJI := range []bool{false, true} {
		o := New(cat, paperStats())
		if withBJI {
			o.RegisterBJI("Vehicle", "manufacturer", "vm", bji)
		}
		plan, ex, err := o.Optimize(mustParse(t, q))
		if err != nil {
			t.Fatal(err)
		}
		paths := ex.Terms[0].Paths
		first := paths[0].Attrs[0]
		if want := map[bool]string{false: "engine", true: "manufacturer"}[withBJI]; first != want {
			t.Errorf("join index %v: first path %s, want %s", withBJI, first, want)
		}
		for _, ps := range paths {
			cls := &classifier{cat: cat, stats: o.Stats, varClass: map[string]string{"v": "Vehicle", "d": "VehicleDriveTrain"}}
			key := o.orderKey(cls, ps)
			if ps.Attrs[0] == "manufacturer" && withBJI {
				if !(key < ps.Rank) {
					t.Errorf("backward key %v not below the forward rank %v", key, ps.Rank)
				}
			} else if key != ps.Rank {
				t.Errorf("%v: key %v, want the forward rank %v", ps.Attrs, key, ps.Rank)
			}
		}
		if !withBJI {
			continue
		}
		r := Render(plan)
		want := "JOIN(\n      BIND(Vehicle, v),\n      INDSEL(Company, m, cname[btree], m.name = \"BMW\"),\n      BINARY_JOIN_INDEX, v.manufacturer = m.self)"
		if !strings.Contains(r, want) {
			t.Errorf("the name path is not an index selection probed backward from the bare bind:\n%s", r)
		}
	}
}

// TestBindRebindsPathIndexSelection: a cached plan's index-selected path
// segment carries the plan-cache parameter slots of its constants.
func TestBindRebindsPathIndexSelection(t *testing.T) {
	o := New(indexedCatalog(t), paperStats())
	for _, tc := range []struct {
		query, first string
		params       []object.Value
		want         string
	}{
		{`Select v From Vehicle v where v.manufacturer.name = 'BMW'`, `m.name = "BMW"`,
			[]object.Value{object.NewString("Audi")},
			`INDSEL(Company, m, cname[btree], m.name = "Audi")`},
		{`Select v From Vehicle v where v.drivetrain.engine.cylinders BETWEEN 4 AND 6`, `BETWEEN 4 AND 6`,
			[]object.Value{object.NewInt(8), object.NewInt(12)},
			`INDSEL(VehicleEngine, e, ecyl[btree], e.cylinders BETWEEN 8 AND 12)`},
	} {
		st, _, params, err := sql.ParseShaped(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if len(params) != len(tc.params) {
			t.Fatalf("%s: params = %v", tc.query, params)
		}
		plan, _, err := o.Optimize(st.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		if r := Render(plan); !strings.Contains(r, "INDSEL") {
			t.Fatalf("%s: no index selection to rebind:\n%s", tc.query, r)
		}
		bound := Render(Bind(plan, tc.params))
		if !strings.Contains(bound, tc.want) || strings.Contains(bound, tc.first) {
			t.Errorf("%s: the rebound plan kept the first binding's constants:\n%s", tc.query, bound)
		}
	}
}
