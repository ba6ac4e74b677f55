package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smoke runs a workload briefly on one database build.
func smoke(t *testing.T, w workload, traced bool) result {
	t.Helper()
	o, err := run(config{
		workload: w, seed: 1, builds: 1,
		warmup: 50 * time.Millisecond, window: 300 * time.Millisecond,
		trace: traced,
	})
	if err != nil {
		t.Fatal(err)
	}
	return report(o, traced)
}

// TestWorkloadsSmoke runs every workload untraced and traced, and checks
// that nothing failed and that every metric BENCHMARK.json declares is
// emitted with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := smoke(t, w, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s emitted as %+v (present %v), declared unit %s", w.name, traced, m.Name, got, ok, m.Unit)
				}
				// A window this short can miss a rare shape entirely, so
				// only never-negative is checked here.
				if got.Value < 0 {
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSpecSchema checks BENCHMARK.json against the benchmark's own
// declarations and the limits it must respect.
func TestSpecSchema(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, want 2..8 and %d", n, len(workloads))
	}
	for i, w := range sp.Workloads {
		if !nameRE.MatchString(w.Name) || i >= len(workloads) || workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d: %+v does not match the benchmark's", i, w)
		}
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want <= 16 and <= 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d emitted", kind, len(declared), len(defs))
			return
		}
		for i, m := range declared {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit %+v", kind, m)
			}
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: declared %s (%s), emitted %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
	setup := false
	for _, m := range sp.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) not declared")
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || len(sp.Paths) == 0 || sp.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", sp.RunSeconds, sp.Paths)
	}
}

// TestCountersRepeat runs the single-client fixed-op-count mode twice per
// workload: every count the engine reports must repeat exactly, so a later
// change may cite one as a count.
func TestCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 800 operations")
	}
	for _, name := range []string{"query-cold", "mixed-rw"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		type counts struct{ reads, writes, forces, rows, unmarshals, attempted, failed int64 }
		var got [2]counts
		for i := range got {
			o, err := run(config{workload: w, seed: 7, builds: 1, ops: 200})
			if err != nil {
				t.Fatal(err)
			}
			res := report(o, false)
			c := counts{reads: o.delta.reads, writes: o.delta.writes, forces: o.delta.forces,
				unmarshals: o.delta.unmarshals, attempted: res.Attempted, failed: res.Failed}
			for _, cl := range o.clients {
				c.rows += cl.rows
			}
			got[i] = c
		}
		if got[0] != got[1] {
			t.Errorf("%s: counters differ between identical runs:\n%+v\n%+v", name, got[0], got[1])
		}
		if got[0].attempted != 200 || got[0].failed != 0 || got[0].rows == 0 {
			t.Errorf("%s: %+v", name, got[0])
		}
	}
}

// TestWrongResultFails checks the correctness gate: a result that differs
// from the oracle counts as a failure.
func TestWrongResultFails(t *testing.T) {
	w, err := findWorkload("query-warm")
	if err != nil {
		t.Fatal(err)
	}
	db, vehicles, orc, _, err := setup(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for id, a := range orc.point {
		a.fp++
		orc.point[id] = a
	}
	r := newRunner(config{workload: w, seed: 1}, db, orc, vehicles)
	r.sequential(40)
	var failed int64
	for _, c := range r.clients {
		failed += c.failed
	}
	if failed == 0 {
		t.Fatal("40 paper-mix queries against a corrupted oracle reported no failure")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	p95 := specMetric{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		old, new []float64
		want     string
	}{
		{[]float64{4}, []float64{3.8}, "same"}, // one run each beats trivially; within the bound
		{[]float64{4, 4.1, 3.9}, []float64{5.5, 5.6, 5.4}, "worse"},
		{[]float64{4, 4.1, 3.9}, []float64{2, 2.1, 1.9}, "better"},
		{[]float64{2, 4, 6, 8}, []float64{2, 4, 6, 8}, "unresolved"},
		{[]float64{6, 7, 9, 12}, []float64{1, 2, 3, 5}, "better"}, // wide, but every new run beats every old one
	} {
		if got, _ := verdict(c.old, c.new, p95); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.old, c.new, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p95s []float64) string {
		var buf bytes.Buffer
		for i, v := range p95s {
			rec := record{Workload: "query-warm", Seed: int64(i), result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"query_p95_ms": {v, "ms"}, "query_per_s": {100, "1/s"}}}}
			line, err := jsonLine(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.jsonl", []float64{4.0, 4.1, 4.0, 3.9, 4.0})
	worse := write("worse.jsonl", []float64{5.5, 5.6, 5.5, 5.4, 5.5})
	var out bytes.Buffer
	if err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), old, worse); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	var p95, rate string
	for _, l := range lines {
		if strings.Contains(l, "query_p95_ms") {
			p95 = l
		}
		if strings.Contains(l, "query_per_s") {
			rate = l
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(p95), "worse") || !strings.HasSuffix(strings.TrimSpace(rate), "same") {
		t.Fatalf("compare output:\n%s", out.String())
	}
}
