package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/object"
	"mood/internal/storage"
)

// coldCatalog re-opens the environment's disk behind a small, cold buffer
// pool, so measured page accesses approximate the cost model's no-buffer
// assumption ("worst case formula where there are no page hits"). Secondary
// indexes are not rebuilt (OpenLite), so a single frame suffices; harnesses
// that need an index use coldCatalogIndexed.
func coldCatalog(env *Env, frames int) (*catalog.Catalog, *storage.DiskSim, error) {
	return coldOpen(env, frames, false)
}

// coldCatalogIndexed additionally rebuilds the secondary indexes (B+-tree
// splits pin several pages, so frames must be >= 8).
func coldCatalogIndexed(env *Env, frames int) (*catalog.Catalog, *storage.DiskSim, error) {
	if frames < 8 {
		frames = 8
	}
	return coldOpen(env, frames, true)
}

func coldOpen(env *Env, frames int, indexes bool) (*catalog.Catalog, *storage.DiskSim, error) {
	if err := env.Pool.FlushAll(); err != nil {
		return nil, nil, err
	}
	disk := env.Pool.Disk()
	// Measurements run under ESM layout accounting: extent pages are not
	// physically adjacent on ESM, so every access costs a random access —
	// the regime all the Section 5/6 formulas (and the optimizer) assume.
	disk.SetESMLayout(true)
	bp := storage.NewBufferPool(disk, frames)
	fm, err := storage.OpenFileManager(bp, env.DB.Cat.Store().Files().DirPage())
	if err != nil {
		return nil, nil, err
	}
	store := storage.NewObjectStore(bp, fm)
	var cat *catalog.Catalog
	if indexes {
		cat, err = catalog.Open(store)
	} else {
		cat, err = catalog.OpenLite(store)
	}
	if err != nil {
		return nil, nil, err
	}
	return cat, disk, nil
}

// JoinMethodSweep measures the three scan-free join strategies against
// their Section 6 cost predictions across a k_c sweep: k_c randomly
// selected vehicles are joined to their drivetrains by each method, the
// simulated disk time recorded, and the analytic prediction printed next to
// it. The paper's shape must hold: forward traversal wins at small k_c
// (objects in memory), the scan-based strategies at large k_c.
func JoinMethodSweep(w io.Writer, env *Env) error {
	section(w, "Join-method sweep: measured (simulated disk ms) vs predicted (Section 6)")
	fmt.Fprintf(w, "%-10s %-12s %14s %14s %16s\n", "k_c", "method", "predicted", "measured", "winner(pred/meas)")

	fractions := []float64{0.001, 0.01, 0.1, 0.5, 1.0}
	methods := []cost.JoinMethod{cost.ForwardTraversal, cost.BackwardTraversal, cost.HashPartition}
	totalV := len(env.DB.Vehicles)

	// The Section 6 formulas model k_c objects picked at random; a
	// deterministic shuffle removes the generator's sequential layout.
	shuffled := append([]storage.OID(nil), env.DB.Vehicles...)
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	for _, frac := range fractions {
		kc := int(frac * float64(totalV))
		if kc < 1 {
			kc = 1
		}
		// Predictions for a temporary collection of k_c vehicles.
		in := cost.JoinInput{
			Class: "Vehicle", Attribute: "drivetrain",
			Kc: float64(kc), Kd: float64(len(env.DB.DriveTrains)),
			CAccessed: true,
		}
		predicted := map[cost.JoinMethod]float64{}
		var err error
		if predicted[cost.ForwardTraversal], err = env.Stats.ForwardCost(in); err != nil {
			return err
		}
		if predicted[cost.BackwardTraversal], err = env.Stats.BackwardCost(in); err != nil {
			return err
		}
		if predicted[cost.HashPartition], err = env.Stats.HashPartitionCost(in); err != nil {
			return err
		}

		measured := map[cost.JoinMethod]float64{}
		for _, m := range methods {
			// A minimal pool forces the no-buffer-hit regime the Section 6
			// formulas assume.
			cat, disk, err := coldCatalog(env, 1)
			if err != nil {
				return err
			}
			a := algebra.New(cat)
			// Left side: k_c vehicles as an in-memory temporary (values
			// preloaded, as after a prior selection).
			left := a.BindSet("v", "Vehicle", shuffled[:kc])
			if err := a.Materialize(left); err != nil {
				return err
			}
			right, err := a.BindDirect("VehicleDriveTrain", "d")
			if err != nil {
				return err
			}
			disk.ResetStats()
			out, err := a.Join(left, right, algebra.JoinSpec{
				Method: m, LeftVar: "v", Attribute: "drivetrain", RightVar: "d",
			})
			if err != nil {
				return err
			}
			if out.Len() != kc {
				return fmt.Errorf("join sweep: %v produced %d rows, want %d", m, out.Len(), kc)
			}
			measured[m] = disk.Stats().TimeMs
		}

		bestPred, bestMeas := methods[0], methods[0]
		for _, m := range methods[1:] {
			if predicted[m] < predicted[bestPred] {
				bestPred = m
			}
			if measured[m] < measured[bestMeas] {
				bestMeas = m
			}
		}
		for _, m := range methods {
			fmt.Fprintf(w, "%-10d %-12s %14.1f %14.1f\n", kc, shortMethod(m), predicted[m], measured[m])
		}
		fmt.Fprintf(w, "%-10s -> predicted winner %s, measured winner %s\n\n",
			"", shortMethod(bestPred), shortMethod(bestMeas))
	}
	fmt.Fprintln(w, "note: the right side is materialized for the probe in all methods, so")
	fmt.Fprintln(w, "measured costs isolate the left-side access pattern the formulas model.")
	return nil
}

func shortMethod(m cost.JoinMethod) string {
	switch m {
	case cost.ForwardTraversal:
		return "forward"
	case cost.BackwardTraversal:
		return "backward"
	case cost.BinaryJoinIndex:
		return "bji"
	case cost.HashPartition:
		return "hash"
	}
	return "?"
}

// PathOrderingSweep measures Algorithm 8.1's benefit: Example 8.1's two
// path predicates evaluated over every vehicle with short-circuiting, in
// the F/(1-s) order versus the reverse order. Disk time is dominated by
// pointer dereferences, which the selective-first order mostly avoids.
func PathOrderingSweep(w io.Writer, env *Env) error {
	section(w, "Algorithm 8.1 ordering: P2-first (chosen) vs P1-first (reverse)")
	p2 := &expr.Cmp{Op: expr.OpEq,
		L: expr.Path("v", "manufacturer", "name"),
		R: &expr.Const{Val: object.NewString("BMW")}}
	p1 := &expr.Cmp{Op: expr.OpEq,
		L: expr.Path("v", "drivetrain", "engine", "cylinders"),
		R: &expr.Const{Val: object.NewInt(2)}}

	run := func(first, second expr.Expr) (float64, int, error) {
		cat, disk, err := coldCatalog(env, 64)
		if err != nil {
			return 0, 0, err
		}
		a := algebra.New(cat)
		vehicles, err := a.BindDirect("Vehicle", "v")
		if err != nil {
			return 0, 0, err
		}
		disk.ResetStats()
		pred := &expr.Logic{Op: expr.OpAnd, L: first, R: second}
		out, err := a.Select(vehicles, pred, false)
		if err != nil {
			return 0, 0, err
		}
		return disk.Stats().TimeMs, out.Len(), nil
	}
	chosenMs, n1, err := run(p2, p1)
	if err != nil {
		return err
	}
	reverseMs, n2, err := run(p1, p2)
	if err != nil {
		return err
	}
	if n1 != n2 {
		return fmt.Errorf("orderings disagree: %d vs %d rows", n1, n2)
	}
	fmt.Fprintf(w, "matching vehicles: %d\n", n1)
	fmt.Fprintf(w, "P2-first (Algorithm 8.1): %12.1f ms simulated I/O\n", chosenMs)
	fmt.Fprintf(w, "P1-first (reverse):       %12.1f ms simulated I/O\n", reverseMs)
	if reverseMs > 0 {
		fmt.Fprintf(w, "speedup: %.1fx\n", reverseMs/chosenMs)
	}
	fmt.Fprintln(w, "(the selective path first short-circuits almost every conjunction,")
	fmt.Fprintln(w, "skipping the second path's dereferences - the Appendix lemma's gain)")
	return nil
}

// SelectivityAccuracy compares estimated path selectivities (Section 4.1's
// formulas over c and o) with the exact fractions measured by brute force.
func SelectivityAccuracy(w io.Writer, env *Env) error {
	section(w, "Path-expression selectivity: estimated (Section 4.1) vs actual")
	fmt.Fprintf(w, "%-48s %14s %14s %10s\n", "predicate", "estimated", "actual", "ratio")

	a := algebra.New(env.DB.Cat)
	vehicles, err := a.BindDirect("Vehicle", "v")
	if err != nil {
		return err
	}
	total := float64(vehicles.Len())

	cases := []struct {
		label string
		path  cost.Path
		kind  cost.CmpKind
		c1    float64
		pred  expr.Expr
	}{
		{
			"v.drivetrain.engine.cylinders = 2",
			PaperPathP1(), cost.CmpEq, 2,
			&expr.Cmp{Op: expr.OpEq, L: expr.Path("v", "drivetrain", "engine", "cylinders"),
				R: &expr.Const{Val: object.NewInt(2)}},
		},
		{
			"v.drivetrain.engine.cylinders > 16",
			PaperPathP1(), cost.CmpGt, 16,
			&expr.Cmp{Op: expr.OpGt, L: expr.Path("v", "drivetrain", "engine", "cylinders"),
				R: &expr.Const{Val: object.NewInt(16)}},
		},
		{
			"v.manufacturer.name = 'BMW'",
			PaperPathP2(), cost.CmpEq, 0,
			&expr.Cmp{Op: expr.OpEq, L: expr.Path("v", "manufacturer", "name"),
				R: &expr.Const{Val: object.NewString("BMW")}},
		},
	}
	for _, c := range cases {
		est, err := env.Stats.PathSelectivity(c.path, c.kind, c.c1, 0)
		if err != nil {
			return err
		}
		out, err := a.Select(vehicles, c.pred, false)
		if err != nil {
			return err
		}
		actual := float64(out.Len()) / total
		ratio := 0.0
		if actual > 0 {
			ratio = est / actual
		}
		fmt.Fprintf(w, "%-48s %14.4e %14.4e %10.2f\n", c.label, est, actual, ratio)
	}
	fmt.Fprintln(w, "(ratio near 1 means the uniformity assumptions hold on this workload)")
	return nil
}

// IndexSelectionSweep demonstrates §8.1's inequality: for predicates of
// varying selectivity, the measured cost of the index path vs the scan
// path, and which one the rule picks.
func IndexSelectionSweep(w io.Writer, env *Env) error {
	return withIndex(env.DB.Cat, "sweep_weight", "Vehicle", "weight", func() error {
		return indexSelectionSweep(w, env)
	})
}

func indexSelectionSweep(w io.Writer, env *Env) error {
	section(w, "Index-selection rule (8.1): scan vs index across predicate widths")
	fmt.Fprintf(w, "%-34s %10s %12s %12s %10s\n", "predicate", "f_s", "scan ms", "index ms", "rule picks")

	widths := []struct {
		lo, hi int32
	}{
		{800, 805}, {800, 850}, {800, 1200}, {800, 3000},
	}
	as, err := env.Stats.Attr("Vehicle", "weight")
	if err != nil {
		return err
	}
	cs, err := env.Stats.Class("Vehicle")
	if err != nil {
		return err
	}
	idxStats := indexCostStats(env, "Vehicle", "weight")
	for _, wd := range widths {
		fs := as.SelBetween(float64(wd.lo), float64(wd.hi))
		// Rule: cost_1 + RNDCOST(|C|·f_s) < SCANCOST(nbpages)?
		idxCost := env.Stats.RNGXCOST(idxStats, fs)
		useIndex := idxCost+env.Stats.Disk.RNDCOST(float64(cs.Card)*fs) < env.Stats.ScanCost(float64(cs.NbPages))

		// Measured: scan.
		cat, disk, err := coldCatalogIndexed(env, 64)
		if err != nil {
			return err
		}
		a := algebra.New(cat)
		pred := &expr.Between{
			E:  expr.Path("v", "weight"),
			Lo: &expr.Const{Val: object.NewInt(wd.lo)},
			Hi: &expr.Const{Val: object.NewInt(wd.hi)},
		}
		// The index rebuild warmed the pool; evict so the measured scan
		// really reads the extent.
		if err := cat.Store().Pool().EvictAll(); err != nil {
			return err
		}
		disk.ResetStats()
		vehicles, err := a.BindDirect("Vehicle", "v")
		if err != nil {
			return err
		}
		scanOut, err := a.Select(vehicles, pred, false)
		if err != nil {
			return err
		}
		scanMs := disk.Stats().TimeMs

		// Measured: index (cold again).
		cat2, disk2, err := coldCatalogIndexed(env, 64)
		if err != nil {
			return err
		}
		a2 := algebra.New(cat2)
		if err := cat2.Store().Pool().EvictAll(); err != nil {
			return err
		}
		disk2.ResetStats()
		idxOut, err := a2.IndSel("Vehicle", "v", catalog.BTreeIndex, algebra.SimplePredicate{
			Attribute: "weight", Between: true,
			Constant: object.NewInt(wd.lo), Constant2: object.NewInt(wd.hi),
		}, nil)
		if err != nil {
			return err
		}
		idxMs := disk2.Stats().TimeMs
		if idxOut.Len() != scanOut.Len() {
			return fmt.Errorf("index and scan disagree: %d vs %d", idxOut.Len(), scanOut.Len())
		}
		pick := "scan"
		if useIndex {
			pick = "index"
		}
		fmt.Fprintf(w, "weight BETWEEN %-5d AND %-11d %10.4f %12.1f %12.1f %10s\n",
			wd.lo, wd.hi, fs, scanMs, idxMs, pick)
	}
	fmt.Fprintln(w, "(the rule should pick whichever side measures cheaper; crossover shape)")
	return nil
}

func indexCostStats(env *Env, class, attr string) cost.BTreeStats {
	for _, ix := range env.DB.Cat.Indexes() {
		if ix.Class == class && ix.Attribute == attr && ix.BTree() != nil {
			st := ix.BTree().Stats()
			return cost.BTreeStats{Order: st.Order, Levels: st.Levels, Leaves: st.Leaves, KeySize: st.KeySize}
		}
	}
	return cost.BTreeStats{Order: 100, Levels: 2, Leaves: 10}
}
