// Package mood_test holds the repository-level benchmark harness: one
// benchmark per paper table and figure (each regenerates its artifact
// through internal/experiments and reports the simulated-disk cost where
// one is defined), plus ablation benches for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock numbers reflect this machine; the paper-comparable
// quantities are the simulated-disk milliseconds reported as "simms/op"
// custom metrics and the artifact outputs themselves (see cmd/moodbench).
package mood_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/exec"
	"mood/internal/experiments"
	"mood/internal/expr"
	"mood/internal/funcmgr"
	"mood/internal/joinindex"
	"mood/internal/kernel"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/sql"
	"mood/internal/storage"
)

// benchScale keeps the per-iteration cost low enough for -bench=. to finish
// everywhere; cmd/moodbench runs the same artifacts at any scale.
const benchScale = experiments.Scale(0.02)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.BuildEnv(benchScale) })
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

var (
	kernelOnce sync.Once
	kernelDB   *kernel.DB
	kernelErr  error
)

func benchKernel(b *testing.B) *kernel.DB {
	b.Helper()
	kernelOnce.Do(func() {
		kernelDB, _, kernelErr = experiments.BuildKernelEnv(benchScale)
		if kernelErr == nil {
			kernelErr = kernelDB.RegisterMethod("Vehicle", "lbweight",
				func(inv *funcmgr.Invocation) (object.Value, error) {
					w, _ := inv.Self.Field("weight")
					return object.NewInt(int32(float64(w.Int) * 2.2075)), nil
				})
		}
	})
	if kernelErr != nil {
		b.Fatal(kernelErr)
	}
	return kernelDB
}

// artifactBench runs one experiment artifact per iteration.
func artifactBench(b *testing.B, fn func(io.Writer, *experiments.Env) error) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper table / figure -------------------------------

func BenchmarkTable1SelectReturnTypes(b *testing.B) { artifactBench(b, experiments.Table1) }
func BenchmarkTable2JoinReturnTypes(b *testing.B)   { artifactBench(b, experiments.Table2) }
func BenchmarkTables3to7Conversions(b *testing.B) {
	artifactBench(b, func(w io.Writer, _ *experiments.Env) error {
		experiments.Tables3to7(w)
		return nil
	})
}
func BenchmarkTable8CostParameters(b *testing.B) {
	artifactBench(b, func(w io.Writer, e *experiments.Env) error {
		experiments.Table8(w, e)
		return nil
	})
}
func BenchmarkTable9BTreeParameters(b *testing.B) { artifactBench(b, experiments.Table9) }
func BenchmarkTable10DiskParameters(b *testing.B) {
	artifactBench(b, func(w io.Writer, e *experiments.Env) error {
		experiments.Table10(w, e)
		return nil
	})
}
func BenchmarkTables11and12Dictionaries(b *testing.B) { artifactBench(b, experiments.Tables11and12) }
func BenchmarkTables13to15ExampleStats(b *testing.B) {
	artifactBench(b, func(w io.Writer, e *experiments.Env) error {
		experiments.Tables13to15(w, e)
		return nil
	})
}
func BenchmarkTable16Example81Dictionary(b *testing.B)  { artifactBench(b, experiments.Table16) }
func BenchmarkTable17Example82Estimations(b *testing.B) { artifactBench(b, experiments.Table17) }
func BenchmarkExample81Plan(b *testing.B)               { artifactBench(b, experiments.Example81Plan) }
func BenchmarkExample82Plan(b *testing.B)               { artifactBench(b, experiments.Example82Plan) }
func BenchmarkFigure71ClauseOrder(b *testing.B)         { artifactBench(b, experiments.Figure71) }
func BenchmarkFigure72OperatorOrder(b *testing.B)       { artifactBench(b, experiments.Figure72) }

// --- end-to-end query benchmarks with simulated-disk metrics --------------

func benchQuery(b *testing.B, query string) {
	db := benchKernel(b)
	db.Disk.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(query); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(db.Disk.Stats().TimeMs/float64(b.N), "simms/op")
}

func BenchmarkQueryExample81(b *testing.B) {
	benchQuery(b, `SELECT v FROM Vehicle v
		WHERE v.manufacturer.name = 'BMW' AND v.drivetrain.engine.cylinders = 2`)
}

func BenchmarkQueryExample82(b *testing.B) {
	benchQuery(b, `SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2`)
}

func BenchmarkQuerySection31(b *testing.B) {
	benchQuery(b, `SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v
		WHERE c.drivetrain.transmission = 'AUTOMATIC'
		AND c.drivetrain.engine = v AND v.cylinders > 4`)
}

func BenchmarkQueryGroupBy(b *testing.B) {
	benchQuery(b, `SELECT e.cylinders, COUNT(*) AS n, AVG(e.size) AS s
		FROM VehicleEngine e GROUP BY e.cylinders ORDER BY e.cylinders`)
}

func BenchmarkQueryMethodPredicate(b *testing.B) {
	benchQuery(b, `SELECT COUNT(*) AS n FROM Vehicle v WHERE v.lbweight() > 6000`)
}

// --- ablation benches (DESIGN.md) ------------------------------------------

// BenchmarkJoinMethods compares the four implicit-join strategies on the
// same inputs (Section 6's subject).
func BenchmarkJoinMethods(b *testing.B) {
	env := benchEnv(b)
	bji, err := joinindex.BuildBJI(env.DB.Cat, "Vehicle", "drivetrain")
	if err != nil {
		b.Fatal(err)
	}
	a := algebra.New(env.DB.Cat)
	left := a.BindSet("v", "Vehicle", env.DB.Vehicles[:len(env.DB.Vehicles)/10])
	if err := a.Materialize(left); err != nil {
		b.Fatal(err)
	}
	right, err := a.BindDirect("VehicleDriveTrain", "d")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []cost.JoinMethod{
		cost.ForwardTraversal, cost.BackwardTraversal, cost.BinaryJoinIndex, cost.HashPartition,
	} {
		b.Run(m.String(), func(b *testing.B) {
			disk := env.Pool.Disk()
			disk.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Join(left, right, algebra.JoinSpec{
					Method: m, LeftVar: "v", Attribute: "drivetrain", RightVar: "d", Index: bji,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(disk.Stats().TimeMs/float64(b.N), "simms/op")
		})
	}
}

// BenchmarkPathOrdering compares Algorithm 8.1's order against the reverse
// (the Appendix lemma's objective, measured).
func BenchmarkPathOrdering(b *testing.B) {
	env := benchEnv(b)
	a := algebra.New(env.DB.Cat)
	vehicles, err := a.BindDirect("Vehicle", "v")
	if err != nil {
		b.Fatal(err)
	}
	p2 := &expr.Cmp{Op: expr.OpEq, L: expr.Path("v", "manufacturer", "name"),
		R: &expr.Const{Val: object.NewString("BMW")}}
	p1 := &expr.Cmp{Op: expr.OpEq, L: expr.Path("v", "drivetrain", "engine", "cylinders"),
		R: &expr.Const{Val: object.NewInt(2)}}
	run := func(b *testing.B, first, second expr.Expr) {
		pred := &expr.Logic{Op: expr.OpAnd, L: first, R: second}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Select(vehicles, pred, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Algorithm81Order", func(b *testing.B) { run(b, p2, p1) })
	b.Run("ReverseOrder", func(b *testing.B) { run(b, p1, p2) })
}

// BenchmarkIndexVsScan compares the two access paths §8.1 chooses between.
func BenchmarkIndexVsScan(b *testing.B) {
	env := benchEnv(b)
	if env.DB.Cat.IndexOn("Vehicle", "id") == nil {
		if _, err := env.DB.Cat.CreateIndex("bench_vid", "Vehicle", "id", catalog.BTreeIndex, true); err != nil {
			b.Fatal(err)
		}
	}
	a := algebra.New(env.DB.Cat)
	pred := &expr.Cmp{Op: expr.OpEq, L: expr.Path("v", "id"), R: &expr.Const{Val: object.NewInt(42)}}
	b.Run("Scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vehicles, err := a.BindDirect("Vehicle", "v")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.Select(vehicles, pred, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.IndSel("Vehicle", "v", catalog.BTreeIndex, algebra.SimplePredicate{
				Attribute: "id", Op: expr.OpEq, Constant: object.NewInt(42),
			}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFunctionManager measures the late-binding overhead against a
// direct Go call — the cost the paper's compiled-function design removes
// from the interpreter.
func BenchmarkFunctionManager(b *testing.B) {
	db := benchKernel(b)
	self, _, err := db.Cat.GetObject(dbFirstVehicle(b, db))
	if err != nil {
		b.Fatal(err)
	}
	direct := func(v object.Value) object.Value {
		w, _ := v.Field("weight")
		return object.NewInt(int32(float64(w.Int) * 2.2075))
	}
	b.Run("DirectCall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			direct(self)
		}
	})
	b.Run("LateBound", func(b *testing.B) {
		inv := &funcmgr.Invocation{Self: self}
		for i := 0; i < b.N; i++ {
			if _, err := db.Funcs.Invoke("Vehicle", "lbweight", inv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func dbFirstVehicle(b *testing.B, db *kernel.DB) storage.OID {
	b.Helper()
	var first storage.OID
	if err := db.Cat.ScanExtent("Vehicle", func(oid storage.OID, _ object.Value) bool {
		first = oid
		return false
	}); err != nil {
		b.Fatal(err)
	}
	return first
}

// BenchmarkOptimizeOnly isolates plan generation (parse + optimize, no
// execution).
func BenchmarkOptimizeOnly(b *testing.B) {
	env := benchEnv(b)
	opt := optimizer.New(env.DB.Cat, env.Stats)
	st, err := sql.Parse(`SELECT v FROM Vehicle v
		WHERE v.manufacturer.name = 'BMW' AND v.drivetrain.engine.cylinders = 2`)
	if err != nil {
		b.Fatal(err)
	}
	q := st.(*sql.Select)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := opt.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorScan isolates the executor's scan + predicate pipeline.
func BenchmarkExecutorScan(b *testing.B) {
	env := benchEnv(b)
	opt := optimizer.New(env.DB.Cat, env.Stats)
	ex := exec.New(algebra.New(env.DB.Cat))
	st, _ := sql.Parse(`SELECT v FROM Vehicle v WHERE v.weight > 1500`)
	plan, _, err := opt.Optimize(st.(*sql.Select))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweeps ties the measured-vs-predicted experiments into the bench
// harness (their tabular output goes to moodbench; here we time them).
func BenchmarkSweepJoinMethods(b *testing.B)    { artifactBench(b, experiments.JoinMethodSweep) }
func BenchmarkSweepPathOrdering(b *testing.B)   { artifactBench(b, experiments.PathOrderingSweep) }
func BenchmarkSweepSelectivity(b *testing.B)    { artifactBench(b, experiments.SelectivityAccuracy) }
func BenchmarkSweepIndexSelection(b *testing.B) { artifactBench(b, experiments.IndexSelectionSweep) }

var _ = fmt.Sprintf // reserved for debug output in ad-hoc runs
