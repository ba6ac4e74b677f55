package main

import (
	"fmt"
	"sort"

	"mood/internal/catalog"
	"mood/internal/object"
	"mood/internal/storage"
)

// domains are the parameter values the paper-mix draws its constants from.
type domains struct {
	ids          []int    // Vehicle.id values
	cylinders    []int    // distinct VehicleEngine.cylinders values
	maxCylinders int      // group thresholds range over 0..maxCylinders
	makers       []string // names of the companies that manufacture a vehicle
	locations    []string // distinct Company.location values
	minAge       int      // scan thresholds range over minAge-1..maxAge
	maxAge       int
}

// oracle answers every paper-mix statement for every parameter value in its
// domains. It is built by navigating the database object by object with
// Cat.ScanExtent and Cat.GetObject, so it shares no code with the optimizer
// or the executor it checks.
type oracle struct {
	domains
	point map[int]answer
	ex82  map[int]answer
	ex81  map[string]map[int]answer
	group map[int]answer
	scan  map[string]map[int]answer
}

// expect returns the answer a correct engine gives for q.
func (o *oracle) expect(q query) answer {
	switch q.shape {
	case shapePoint:
		return o.point[q.a]
	case shapeEx82:
		return o.ex82[q.a]
	case shapeEx81:
		return o.ex81[q.s][q.a]
	case shapeGroup:
		return o.group[q.a]
	case shapeScan:
		return o.scan[q.s][q.a]
	}
	panic(fmt.Sprintf("oracle: unknown shape %d", q.shape))
}

func field(v object.Value, name string) (object.Value, error) {
	f, ok := v.Field(name)
	if !ok {
		return object.Null, fmt.Errorf("oracle: object has no attribute %s", name)
	}
	return f, nil
}

// navigator dereferences attribute paths one object at a time.
type navigator struct{ cat *catalog.Catalog }

// path follows attrs from v: every attribute but the last is a reference.
func (n navigator) path(v object.Value, attrs ...string) (object.Value, error) {
	for i, a := range attrs {
		f, err := field(v, a)
		if err != nil {
			return object.Null, err
		}
		if i == len(attrs)-1 {
			return f, nil
		}
		if v, _, err = n.cat.GetObject(f.Ref); err != nil {
			return object.Null, fmt.Errorf("oracle: deref %s: %w", a, err)
		}
	}
	return v, nil
}

// scan visits every object of a class's extent, stopping at fn's first error.
func (n navigator) scan(class string, fn func(object.Value) error) error {
	var ferr error
	err := n.cat.ScanExtent(class, func(_ storage.OID, v object.Value) bool {
		ferr = fn(v)
		return ferr == nil
	})
	if ferr != nil {
		return ferr
	}
	return err
}

// buildOracle navigates the populated database and tabulates the answer of
// every statement the paper-mix can draw.
func buildOracle(cat *catalog.Catalog) (*oracle, error) {
	nav := navigator{cat}
	o := &oracle{
		point: map[int]answer{},
		ex82:  map[int]answer{},
		ex81:  map[string]map[int]answer{},
		group: map[int]answer{},
		scan:  map[string]map[int]answer{},
	}

	cyls := map[int]bool{}
	err := nav.scan("Vehicle", func(v object.Value) error {
		id, err := field(v, "id")
		if err != nil {
			return err
		}
		trans, err := nav.path(v, "drivetrain", "transmission")
		if err != nil {
			return err
		}
		cyl, err := nav.path(v, "drivetrain", "engine", "cylinders")
		if err != nil {
			return err
		}
		maker, err := nav.path(v, "manufacturer", "name")
		if err != nil {
			return err
		}
		row := []object.Value{id, trans, maker}
		c := int(cyl.Int)
		cyls[c] = true
		a := o.point[int(id.Int)]
		a.add(row...)
		o.point[int(id.Int)] = a
		o.ids = append(o.ids, int(id.Int))
		a = o.ex82[c]
		a.add(row...)
		o.ex82[c] = a
		byCyl := o.ex81[maker.Str]
		if byCyl == nil {
			byCyl = map[int]answer{}
			o.ex81[maker.Str] = byCyl
			o.makers = append(o.makers, maker.Str)
		}
		a = byCyl[c]
		a.add(row...)
		byCyl[c] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c := range cyls {
		o.cylinders = append(o.cylinders, c)
		if c > o.maxCylinders {
			o.maxCylinders = c
		}
	}

	type dtRow struct {
		trans string
		cyl   int
	}
	var dts []dtRow
	err = nav.scan("VehicleDriveTrain", func(v object.Value) error {
		trans, err := field(v, "transmission")
		if err != nil {
			return err
		}
		cyl, err := nav.path(v, "engine", "cylinders")
		if err != nil {
			return err
		}
		if c := int(cyl.Int); c > o.maxCylinders {
			o.maxCylinders = c
		}
		dts = append(dts, dtRow{trans.Str, int(cyl.Int)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for t := 0; t <= o.maxCylinders; t++ {
		counts := map[string]int64{}
		for _, d := range dts {
			if d.cyl > t {
				counts[d.trans]++
			}
		}
		var a answer
		for trans, n := range counts {
			a.add(object.NewString(trans), object.NewLong(n))
		}
		o.group[t] = a
	}

	type companyRow struct {
		loc  string
		age  int
		hash uint64
	}
	var companies []companyRow
	o.minAge = int(^uint(0) >> 1)
	locs := map[string]bool{}
	err = nav.scan("Company", func(v object.Value) error {
		name, err := field(v, "name")
		if err != nil {
			return err
		}
		loc, err := field(v, "location")
		if err != nil {
			return err
		}
		age, err := nav.path(v, "president", "age")
		if err != nil {
			return err
		}
		a := int(age.Int)
		o.minAge, o.maxAge = min(o.minAge, a), max(o.maxAge, a)
		locs[loc.Str] = true
		companies = append(companies, companyRow{loc.Str, a, rowHash([]object.Value{name})})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc := range locs {
		o.locations = append(o.locations, loc)
		byAge := map[int]answer{}
		for t := o.minAge - 1; t <= o.maxAge; t++ {
			var a answer
			for _, c := range companies {
				if c.loc == loc && c.age > t {
					a.rows++
					a.fp += c.hash
				}
			}
			byAge[t] = a
		}
		o.scan[loc] = byAge
	}

	// Map iteration order is random; the drawn constants must depend on the
	// seed alone.
	sort.Ints(o.cylinders)
	sort.Strings(o.locations)
	if len(o.ids) == 0 || len(o.cylinders) == 0 || len(o.locations) == 0 {
		return nil, fmt.Errorf("oracle: database is empty")
	}
	return o, nil
}
