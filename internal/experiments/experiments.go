// Package experiments regenerates every table and figure of the paper's
// evaluation-relevant content: the algebra return-type tables (1–7), the
// cost-model parameter tables (8–10), the example-database statistics
// (13–15), the optimizer dictionaries (11, 12, 16, 17), the worked access
// plans of Examples 8.1 and 8.2, the execution-order figures (7.1, 7.2),
// and the ablation sweeps (join-method crossover, path-ordering benefit,
// index-selection rule, selectivity estimation accuracy). The moodbench
// command and the repository's benchmarks both drive this package.
package experiments

import (
	"fmt"
	"io"

	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/kernel"
	"mood/internal/stats"
	"mood/internal/storage"
	"mood/internal/vehicledb"
)

// Scale configures the synthetic database relative to the paper's Table 13
// cardinalities (20000/10000/10000/200000). Scale 1.0 is the paper's size;
// the default 0.1 runs in seconds.
type Scale float64

// Config converts the scale into generator cardinalities.
func (s Scale) Config() vehicledb.Config {
	f := float64(s)
	if f <= 0 {
		f = 0.1
	}
	scaled := func(n int) int {
		v := int(float64(n) * f)
		if v < 16 {
			v = 16
		}
		return v
	}
	return vehicledb.Config{
		Vehicles:    scaled(20000),
		DriveTrains: scaled(10000),
		Engines:     scaled(10000),
		Companies:   scaled(200000),
		Employees:   scaled(1000),
		Seed:        1,
	}
}

// Env is a built experiment environment: the populated database with
// collected statistics.
type Env struct {
	Scale Scale
	Cfg   vehicledb.Config
	DB    *vehicledb.DB
	Pool  *storage.BufferPool
	Stats *cost.Stats
}

// BuildEnv generates the example database at the given scale and collects
// its Table 8 statistics.
func BuildEnv(scale Scale) (*Env, error) {
	cfg := scale.Config()
	db, pool, err := vehicledb.Build(cfg, 1<<15)
	if err != nil {
		return nil, err
	}
	st, err := stats.Collect(db.Cat, cost.DefaultDisk())
	if err != nil {
		return nil, err
	}
	return &Env{Scale: scale, Cfg: cfg, DB: db, Pool: pool, Stats: st}, nil
}

// BuildKernelEnv opens a kernel database with the example schema and data
// at the given scale.
func BuildKernelEnv(scale Scale) (*kernel.DB, *vehicledb.DB, error) {
	db, err := kernel.Open(kernel.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	if err := vehicledb.DefineSchema(db.Cat); err != nil {
		return nil, nil, err
	}
	vdb, err := vehicledb.Populate(db.Cat, scale.Config())
	if err != nil {
		return nil, nil, err
	}
	if err := db.RefreshStats(); err != nil {
		return nil, nil, err
	}
	return db, vdb, nil
}

// PaperPathP1 is Example 8.1's P1: v.drivetrain.engine.cylinders = 2.
func PaperPathP1() cost.Path {
	return cost.Path{
		Hops: []cost.PathHop{
			{Class: "Vehicle", Attribute: "drivetrain"},
			{Class: "VehicleDriveTrain", Attribute: "engine"},
		},
		FinalClass: "VehicleEngine",
		FinalAttr:  "cylinders",
	}
}

// PaperPathP2 is Example 8.1's P2: v.manufacturer.name = 'BMW'.
func PaperPathP2() cost.Path {
	return cost.Path{
		Hops:       []cost.PathHop{{Class: "Vehicle", Attribute: "manufacturer"}},
		FinalClass: "Company",
		FinalAttr:  "name",
	}
}

// PaperStats is the statistics base exactly as printed in Tables 13–15.
func PaperStats() *cost.Stats {
	s := cost.NewStats(cost.DefaultDisk())
	s.SetClass(cost.ClassStats{Name: "Vehicle", Card: 20000, NbPages: 2000, Size: 400})
	s.SetClass(cost.ClassStats{Name: "VehicleDriveTrain", Card: 10000, NbPages: 750, Size: 300})
	s.SetClass(cost.ClassStats{Name: "VehicleEngine", Card: 10000, NbPages: 5000, Size: 2000})
	s.SetClass(cost.ClassStats{Name: "Company", Card: 200000, NbPages: 2500, Size: 500})
	s.SetAttr(cost.AttrStats{Class: "VehicleEngine", Attribute: "cylinders", Dist: 16, Max: 32, Min: 2, NotNull: 1})
	s.SetAttr(cost.AttrStats{Class: "Company", Attribute: "name", Dist: 200000, NotNull: 1})
	s.SetLink(cost.LinkStats{Class: "Vehicle", Attribute: "drivetrain", Target: "VehicleDriveTrain",
		Fan: 1, TotRef: 10000, TargetCard: 10000, NotNull: 1})
	s.SetLink(cost.LinkStats{Class: "Vehicle", Attribute: "manufacturer", Target: "Company",
		Fan: 1, TotRef: 20000, TargetCard: 200000, NotNull: 1})
	s.SetLink(cost.LinkStats{Class: "VehicleDriveTrain", Attribute: "engine", Target: "VehicleEngine",
		Fan: 1, TotRef: 10000, TargetCard: 10000, NotNull: 1})
	return s
}

// section prints a header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, dashes(len(title)))
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

// withIndex runs fn with a B+-tree index on class.attr and drops the index
// afterwards, so an artifact's index never reaches the plans of the
// artifacts run after it on the same Env: each sees the database it sees
// when run alone.
func withIndex(cat *catalog.Catalog, name, class, attr string, fn func() error) error {
	if _, err := cat.CreateIndex(name, class, attr, catalog.BTreeIndex, false); err != nil {
		return err
	}
	err := fn()
	if derr := cat.DropIndex(name); err == nil {
		err = derr
	}
	return err
}
