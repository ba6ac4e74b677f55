package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"mood/internal/algebra"
	"mood/internal/exec"
	"mood/internal/expr"
	"mood/internal/objcache"
	"mood/internal/object"
	"mood/internal/optimizer"
)

// The vector sweep measures the batch-at-a-time executor with compiled
// predicates on selection-heavy Company scans, serial and through a
// morsel exchange. Both predicates fully lower to self-mode closures, so
// the scans skip row construction and env binding entirely for rejected
// objects — which is most of them.

// vectorPasses is the number of measured scan passes per configuration. The
// throughput columns come from the best (fastest) pass: per-pass work is
// identical by construction, so the minimum is the measurement least
// disturbed by scheduler and GC interference — summing passes would fold
// machine noise into the mode-to-mode comparison instead.
const vectorPasses = 7

// vectorFrames holds every Company page at the artifact scale, so within a
// pass each page is read exactly once no matter how the exchange workers
// interleave — a smaller pool would let one worker's read save or not save
// another's depending on scheduling, making the Reads column racy. The pool
// is evicted once before the measured loop, so the first measured pass
// performs exactly one first-touch read per page (Reads = extent pages, a
// nonzero constant the sweep compares across modes) and the remaining
// passes run hot — which is where the best pass comes from, so the
// throughput columns compare executors, not the shared page I/O.
const vectorFrames = 8192

// vectorCacheBytes holds every decoded Company at the artifact scale. The
// cache is warmed before measuring, so both modes scan decoded objects
// and the sweep isolates execution cost from decode cost (DecodesPerRow
// pins that the decode skip actually engaged).
const vectorCacheBytes = 64 << 20

// vectorWorkers is the exchange fan-out of the vector-parallel mode.
const vectorWorkers = 4

// VectorModes are the execution modes every predicate runs under.
var VectorModes = []string{"vector", "vector-parallel"}

// VectorEntry is one measured (predicate, mode) configuration. Rows, Reads,
// DecodesPerRow and Compiled are deterministic and must agree with the
// serial vector mode of the same predicate; the wall-clock and allocation
// columns are machine-local measurements.
type VectorEntry struct {
	Name           string  `json:"name"`
	Mode           string  `json:"mode"`
	Rows           int     `json:"rows"`
	Reads          int64   `json:"reads"`
	SimulatedMs    float64 `json:"simulated_ms"`
	WallMs         float64 `json:"best_pass_wall_ms"`
	RowsPerWallSec float64 `json:"rows_per_wall_sec"`
	Speedup        float64 `json:"speedup_vs_vector"`
	Compiled       bool    `json:"compiled"`
	AllocsPerRow   float64 `json:"allocs_per_row"`
	DecodesPerRow  float64 `json:"decodes_per_row"`
}

// BenchVector is the JSON artifact written by moodbench -vector-json.
type BenchVector struct {
	Scale     float64       `json:"scale"`
	Companies int           `json:"companies"`
	Passes    int           `json:"passes"`
	Workers   int           `json:"workers"`
	Entries   []VectorEntry `json:"entries"`
}

// vectorPred names one benchmark predicate over the Company extent.
type vectorPred struct {
	name string
	pred expr.Expr
}

func vectorPreds() []vectorPred {
	field := func(attr string) expr.Expr {
		return &expr.Field{Base: &expr.Var{Name: "c"}, Name: attr}
	}
	return []vectorPred{
		// location cycles through five cities, so ='Tokyo' keeps 20% — the
		// moderately selective scan regime.
		{"scan-select-location", &expr.Cmp{
			Op: expr.OpEq, L: field("location"), R: &expr.Const{Val: object.NewString("Tokyo")},
		}},
		// name is unique; ='BMW' keeps one row — the needle-in-haystack
		// regime where nearly every object is rejected.
		{"scan-select-name", &expr.Cmp{
			Op: expr.OpEq, L: field("name"), R: &expr.Const{Val: object.NewString("BMW")},
		}},
	}
}

// vectorFingerprint folds a result collection into an order-sensitive hash
// over the bound Company objects (OID, name, location).
func vectorFingerprint(out *algebra.Collection) (uint64, error) {
	var fp uint64 = 14695981039346656037
	for _, row := range out.Rows {
		b, ok := row.Get("c")
		if !ok {
			return 0, fmt.Errorf("vector sweep: row without c binding")
		}
		fp = fpMix(fp, uint64(b.OID))
		for _, attr := range []string{"name", "location"} {
			f, ok := b.Val.Field(attr)
			if !ok {
				return 0, fmt.Errorf("vector sweep: company without %s", attr)
			}
			for i := 0; i < len(f.Str); i++ {
				fp = fpMix(fp, uint64(f.Str[i]))
			}
		}
	}
	return fp, nil
}

// MeasureVector measures every predicate under every mode. Per
// configuration: a cold catalog over a small page pool, a warmed object
// cache holding the decoded Company extent, one unmeasured pass, then
// vectorPasses measured passes. The function enforces the differential
// contract inline: every mode must produce the row count, fingerprint and
// per-pass read total of the serial vector mode — the exchange may only
// change CPU time, never results or I/O.
func MeasureVector(env *Env) (*BenchVector, error) {
	out := &BenchVector{
		Scale:     float64(env.Scale),
		Companies: env.Cfg.Companies,
		Passes:    vectorPasses,
		Workers:   vectorWorkers,
	}
	for _, p := range vectorPreds() {
		var base float64  // rows/sec in serial vector mode
		var baseFP uint64 // fingerprint in serial vector mode
		var baseRows int
		var baseReads int64
		for i, mode := range VectorModes {
			e, fp, err := measureVectorEntry(env, p, mode)
			if err != nil {
				return nil, fmt.Errorf("%s mode=%s: %w", p.name, mode, err)
			}
			if i == 0 {
				base, baseFP, baseRows, baseReads = e.RowsPerWallSec, fp, e.Rows, e.Reads
			} else if fp != baseFP || e.Rows != baseRows {
				return nil, fmt.Errorf("%s mode=%s: results diverge from vector mode (rows %d vs %d)",
					p.name, mode, e.Rows, baseRows)
			} else if e.Reads != baseReads {
				return nil, fmt.Errorf("%s mode=%s: read pattern diverges from vector mode (%d vs %d reads)",
					p.name, mode, e.Reads, baseReads)
			}
			if base > 0 {
				e.Speedup = round3(e.RowsPerWallSec / base)
			}
			out.Entries = append(out.Entries, e)
		}
	}
	return out, nil
}

// measureVectorEntry runs one predicate under one mode over a cold isolated
// catalog with a pre-warmed object cache, returning the entry and the
// result fingerprint.
func measureVectorEntry(env *Env, p vectorPred, mode string) (VectorEntry, uint64, error) {
	var e VectorEntry
	cat, d, err := coldCatalog(env, vectorFrames)
	if err != nil {
		return e, 0, err
	}
	defer d.SetESMLayout(false)

	// Warm the decoded-object cache with the whole Company extent so scan
	// passes skip decoding in every mode and the sweep measures execution,
	// not unmarshalling.
	oc := objcache.New(vectorCacheBytes)
	cat.SetObjectCache(oc)
	cat.Store().SetInvalidator(oc)
	if _, _, err := cat.GetObjects(env.DB.Companies); err != nil {
		return e, 0, err
	}

	sel := &optimizer.SelectPlan{
		Input: &optimizer.BindPlan{Class: "Company", Var: "c"},
		Pred:  p.pred,
	}
	var plan optimizer.Plan = sel
	if mode == "vector-parallel" {
		plan = &optimizer.ExchangePlan{Input: sel, Workers: vectorWorkers}
	}
	ex := exec.New(algebra.New(cat))

	pass := func() (*algebra.Collection, error) { return ex.Execute(plan) }

	// Unmeasured pass: establishes the expected result and absorbs the
	// one-time predicate compilation.
	warm, err := pass()
	if err != nil {
		return e, 0, err
	}
	fp, err := vectorFingerprint(warm)
	if err != nil {
		return e, 0, err
	}
	warmRows := warm.Len()

	// Evict once so the first measured pass re-reads every extent page
	// (pinning the deterministic Reads column), then settle the heap so
	// setup garbage is not swept inside the timed passes. Later passes run
	// hot and one of them will be the best pass.
	if err := cat.Store().Pool().EvictAll(); err != nil {
		return e, 0, err
	}
	runtime.GC()
	d.ResetStats()
	um0 := object.Unmarshals()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs

	rows := 0
	var best time.Duration
	for i := 0; i < vectorPasses; i++ {
		start := time.Now()
		out, err := pass()
		wall := time.Since(start)
		if err != nil {
			return e, 0, err
		}
		if best == 0 || wall < best {
			best = wall
		}
		f, err := vectorFingerprint(out)
		if err != nil {
			return e, 0, err
		}
		if out.Len() != warmRows || f != fp {
			return e, 0, fmt.Errorf("pass %d diverged from warm-up (%d rows)", i, out.Len())
		}
		rows += out.Len()
	}

	runtime.ReadMemStats(&ms)
	um := object.Unmarshals() - um0
	s := d.Stats()
	e = VectorEntry{
		Name:        p.name,
		Mode:        mode,
		Rows:        rows,
		Reads:       s.Reads(),
		SimulatedMs: round3(s.TimeMs),
		WallMs:      round3(float64(best) / float64(time.Millisecond)),
	}
	if best > 0 {
		e.RowsPerWallSec = round3(float64(warmRows) / best.Seconds())
	}
	if rows > 0 {
		e.AllocsPerRow = round3(float64(ms.Mallocs-mallocs0) / float64(rows))
		e.DecodesPerRow = round3(float64(um) / float64(rows))
	}
	pf, _ := ex.Funcs.Predicate("c", p.pred)
	e.Compiled = pf != nil
	return e, fp, nil
}

// VectorSweep prints the MeasureVector sweep as a table.
func VectorSweep(w io.Writer, env *Env) error {
	section(w, "Vectorized execution. Batch-at-a-time with compiled predicates, serial vs exchange")
	res, err := MeasureVector(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d Companies scanned, %d measured passes, exchange workers=%d\n\n",
		res.Companies, res.Passes, res.Workers)
	fmt.Fprintf(w, "%-22s %-16s %7s %7s %9s %13s %8s %9s %8s %7s\n",
		"benchmark", "mode", "rows", "reads", "wall ms", "rows/wall-s", "speedup", "compiled", "alloc/r", "dec/r")
	for _, e := range res.Entries {
		fmt.Fprintf(w, "%-22s %-16s %7d %7d %9.2f %13.0f %7.2fx %9t %8.1f %7.2f\n",
			e.Name, e.Mode, e.Rows, e.Reads, e.WallMs,
			e.RowsPerWallSec, e.Speedup, e.Compiled, e.AllocsPerRow, e.DecodesPerRow)
	}
	return nil
}
