package experiments

import (
	"fmt"
	"io"
	"sort"

	"mood/internal/algebra"
	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/object"
	"mood/internal/stats"
	"mood/internal/storage"
)

// truePred is an always-true predicate over a range variable.
func truePred(v string) expr.Expr {
	return &expr.Cmp{Op: expr.OpGe, L: expr.Path(v, "id"), R: &expr.Const{Val: object.NewInt(-1 << 30)}}
}

// Table1 prints the Select operator's return types (paper Table 1),
// verified against the live algebra implementation.
func Table1(w io.Writer, env *Env) error {
	section(w, "Table 1. The return types of the Select operator")
	a := algebra.New(env.DB.Cat)
	oids := env.DB.Vehicles[:4]
	rows := []struct {
		name  string
		build func() (*algebra.Collection, error)
		asSet bool
	}{
		{"Extent", func() (*algebra.Collection, error) { return a.BindDirect("Vehicle", "v") }, false},
		{"Extent (as set)", func() (*algebra.Collection, error) { return a.BindDirect("Vehicle", "v") }, true},
		{"Set", func() (*algebra.Collection, error) { return a.BindSet("v", "Vehicle", oids), nil }, false},
		{"List", func() (*algebra.Collection, error) { return a.BindList("v", "Vehicle", oids), nil }, false},
		{"Named Obj.", func() (*algebra.Collection, error) { return a.BindNamed("v", "Vehicle", oids[0]) }, false},
	}
	fmt.Fprintf(w, "%-18s %s\n", "arg type", "return type")
	for _, r := range rows {
		coll, err := r.build()
		if err != nil {
			return err
		}
		out, err := a.Select(coll, truePred("v"), r.asSet)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %s\n", r.name, out.Kind)
	}
	return nil
}

// Table2 prints the Join return-type matrix (paper Table 2), probing all 16
// combinations through the algebra.
func Table2(w io.Writer, env *Env) error {
	section(w, "Table 2. The return types of the Join operator")
	a := algebra.New(env.DB.Cat)
	v, _, err := env.DB.Cat.GetObject(env.DB.Vehicles[0])
	if err != nil {
		return err
	}
	dtRef, _ := v.Field("drivetrain")
	kinds := []algebra.Kind{algebra.ExtentKind, algebra.SetKind, algebra.ListKind, algebra.NamedObjKind}
	names := map[algebra.Kind]string{
		algebra.ExtentKind: "Extent", algebra.SetKind: "Set",
		algebra.ListKind: "List", algebra.NamedObjKind: "Named Obj.",
	}
	build := func(kind algebra.Kind, name, class string, oid storage.OID) (*algebra.Collection, error) {
		switch kind {
		case algebra.ExtentKind:
			c := a.BindSet(name, class, []storage.OID{oid})
			ext, err := a.AsExtent(c)
			if err != nil {
				return nil, err
			}
			ext.Kind = algebra.ExtentKind
			return ext, nil
		case algebra.SetKind:
			return a.BindSet(name, class, []storage.OID{oid}), nil
		case algebra.ListKind:
			return a.BindList(name, class, []storage.OID{oid}), nil
		default:
			return a.BindNamed(name, class, oid)
		}
	}
	fmt.Fprintf(w, "%-12s", "arg2\\arg1")
	for _, k := range kinds {
		fmt.Fprintf(w, "%-12s", names[k])
	}
	fmt.Fprintln(w)
	for _, k2 := range kinds {
		fmt.Fprintf(w, "%-12s", names[k2])
		for _, k1 := range kinds {
			left, err := build(k1, "v", "Vehicle", env.DB.Vehicles[0])
			if err != nil {
				return err
			}
			right, err := build(k2, "d", "VehicleDriveTrain", dtRef.Ref)
			if err != nil {
				return err
			}
			out, err := a.Join(left, right, algebra.JoinSpec{
				Method: 0, LeftVar: "v", Attribute: "drivetrain", RightVar: "d",
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s", names[out.Kind])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Tables3to7 prints the remaining definitional tables (3–7) as the
// implementation realizes them.
func Tables3to7(w io.Writer) {
	section(w, "Table 3. The return types of DupElim operator")
	fmt.Fprintln(w, "Set    -> not applicable")
	fmt.Fprintln(w, "List   -> list of ordered distinct object identifiers")
	fmt.Fprintln(w, "Extent -> extent of distinct objects (deep equality check)")

	section(w, "Table 4. The return types of Union, Intersection, Difference")
	fmt.Fprintln(w, "Set  x Set  -> Set")
	fmt.Fprintln(w, "Set  x List -> Set")
	fmt.Fprintln(w, "List x Set  -> Set")
	fmt.Fprintln(w, "List x List -> List (union = array concatenation)")

	section(w, "Table 5. Return types for asSet and asList")
	fmt.Fprintln(w, "Extent       -> object identifiers of the objects in the extent")
	fmt.Fprintln(w, "Set          -> object identifiers of the set")
	fmt.Fprintln(w, "List         -> object identifiers of the list")
	fmt.Fprintln(w, "Named Object -> object identifier of the named object")

	section(w, "Table 6. Return types for asExtent")
	fmt.Fprintln(w, "Set  -> extent of dereferenced objects")
	fmt.Fprintln(w, "List -> extent of dereferenced objects")

	section(w, "Table 7. Argument types for Unnest")
	fmt.Fprintln(w, "Extent of tuple type objects")
	fmt.Fprintln(w, "Set(object identifiers of tuple type objects)")
	fmt.Fprintln(w, "List(object identifiers of tuple type objects)")
	fmt.Fprintln(w, "A tuple type object")
	fmt.Fprintln(w, "(return type is always an extent of tuples)")
}

// Table8 prints the cost-model parameters (paper Table 8) as measured from
// the generated database.
func Table8(w io.Writer, env *Env) {
	section(w, fmt.Sprintf("Table 8. Cost model parameters (measured, scale %g)", float64(env.Scale)))
	fmt.Fprintf(w, "%-22s %10s %10s %8s\n", "Class", "|C|", "nbpages(C)", "size(C)")
	var names []string
	for n := range env.Stats.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cs := env.Stats.Classes[n]
		if cs.Card == 0 {
			continue
		}
		fmt.Fprintf(w, "%-22s %10d %10d %8d\n", cs.Name, cs.Card, cs.NbPages, cs.Size)
	}
	fmt.Fprintf(w, "\n%-34s %8s %10s %10s %8s\n", "Reference attribute", "fan", "totref", "totlinks", "hitprb")
	var lkeys []string
	for k := range env.Stats.Links {
		lkeys = append(lkeys, k)
	}
	sort.Strings(lkeys)
	for _, k := range lkeys {
		ls := env.Stats.Links[k]
		cs := env.Stats.Classes[ls.Class]
		fmt.Fprintf(w, "%-34s %8.3f %10.0f %10.0f %8.3f\n",
			k, ls.Fan, ls.TotRef, ls.TotLinks(cs.Card), ls.HitPrb())
	}
	fmt.Fprintf(w, "\n%-34s %8s %10s %10s %8s\n", "Atomic attribute", "dist", "max", "min", "notnull")
	var akeys []string
	for k := range env.Stats.Attrs {
		akeys = append(akeys, k)
	}
	sort.Strings(akeys)
	for _, k := range akeys {
		as := env.Stats.Attrs[k]
		fmt.Fprintf(w, "%-34s %8d %10.0f %10.0f %8.3f\n", k, as.Dist, as.Max, as.Min, as.NotNull)
	}
}

// Table9 builds a B+-tree index on VehicleEngine.cylinders and prints its
// Table 9 parameters. The index is dropped once read: the paper's examples
// plan without one.
func Table9(w io.Writer, env *Env) error {
	var bs cost.BTreeStats
	if err := withIndex(env.DB.Cat, "t9_cyl", "VehicleEngine", "cylinders", func() error {
		bs = stats.IndexStats(env.DB.Cat)["VehicleEngine.cylinders"]
		return nil
	}); err != nil {
		return err
	}
	section(w, "Table 9. Parameters for a B+-tree (index on VehicleEngine.cylinders)")
	fmt.Fprintf(w, "v(I)       order           %d\n", bs.Order)
	fmt.Fprintf(w, "level(I)   number of levels %d\n", bs.Levels)
	fmt.Fprintf(w, "leaves(I)  number of leaves %d\n", bs.Leaves)
	fmt.Fprintf(w, "keysize(I) key size         %d bytes\n", bs.KeySize)
	fmt.Fprintf(w, "unique(I)  unique flag      %v\n", bs.Unique)
	return nil
}

// Table10 prints the physical disk parameters (paper Table 10). The paper
// does not report the values it used; these are the repository's defaults,
// shared by the analytic cost model and the disk simulator.
func Table10(w io.Writer, env *Env) {
	d := env.Stats.Disk
	section(w, "Table 10. Physical parameters for hard disk")
	fmt.Fprintf(w, "B    block size                    %d bytes\n", d.B)
	fmt.Fprintf(w, "btt  block transfer time           %.2f ms\n", d.BTT)
	fmt.Fprintf(w, "ebt  effective block transfer time %.2f ms\n", d.EBT)
	fmt.Fprintf(w, "r    average rotational latency    %.2f ms\n", d.R)
	fmt.Fprintf(w, "s    average seek time             %.2f ms\n", d.S)
	fmt.Fprintln(w, "(values are Salzberg-style defaults; the paper omits its own)")
}

// Tables13to15 prints the example-database statistics in the paper's layout
// (Tables 13, 14 and 15), measured from the generated database.
func Tables13to15(w io.Writer, env *Env) {
	section(w, fmt.Sprintf("Table 13. Statistics on the example database (scale %g)", float64(env.Scale)))
	fmt.Fprintf(w, "%-20s %8s %12s %8s\n", "Class", "|C|", "nbpages(C)", "size(C)")
	for _, n := range []string{"Vehicle", "VehicleDriveTrain", "VehicleEngine", "Company"} {
		cs := env.Stats.Classes[n]
		fmt.Fprintf(w, "%-20s %8d %12d %8d\n", n, cs.Card, cs.NbPages, cs.Size)
	}

	section(w, "Table 14. Statistics on the example database")
	fmt.Fprintf(w, "%-20s %-12s %8s %8s %8s\n", "Class", "Attribute", "dist", "max", "min")
	cyl := env.Stats.Attrs["VehicleEngine.cylinders"]
	fmt.Fprintf(w, "%-20s %-12s %8d %8.0f %8.0f\n", "VehicleEngine", "cylinders", cyl.Dist, cyl.Max, cyl.Min)
	name := env.Stats.Attrs["Company.name"]
	fmt.Fprintf(w, "%-20s %-12s %8d %8s %8s\n", "Company", "name", name.Dist, "-", "-")

	section(w, "Table 15. Statistics on the example database")
	fmt.Fprintf(w, "%-20s %-14s %6s %8s %10s %8s\n", "Class", "Attribute", "fan", "totref", "totlinks", "hitprb")
	for _, k := range []string{"Vehicle.drivetrain", "Vehicle.manufacturer", "VehicleDriveTrain.engine"} {
		ls := env.Stats.Links[k]
		cs := env.Stats.Classes[ls.Class]
		fmt.Fprintf(w, "%-20s %-14s %6.0f %8.0f %10.0f %8.2f\n",
			ls.Class, ls.Attribute, ls.Fan, ls.TotRef, ls.TotLinks(cs.Card), ls.HitPrb())
	}
}
