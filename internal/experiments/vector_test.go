package experiments

import (
	"encoding/json"
	"testing"
)

// TestMeasureVectorContract checks the vectorized-execution sweep's
// deterministic half: the exchange mode of a predicate must produce the row
// count, result fingerprint and per-pass read total of the serial vector
// mode (MeasureVector enforces the fingerprint itself and errors on
// divergence), both predicates must fully lower to compiled closures in
// both modes, and the warm object cache must hold decodes at zero.
func TestMeasureVectorContract(t *testing.T) {
	// The artifact scale: large enough that the Company extent spans a few
	// hundred pages, so the cold first measured pass pins a nonzero,
	// mode-comparable read total.
	env, err := BuildEnv(0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureVector(env)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(VectorModes); len(res.Entries) != want {
		t.Fatalf("expected %d entries, got %d", want, len(res.Entries))
	}

	byName := map[string][]VectorEntry{}
	for _, e := range res.Entries {
		byName[e.Name] = append(byName[e.Name], e)
	}
	for name, entries := range byName {
		if len(entries) != len(VectorModes) {
			t.Fatalf("%s: expected %d modes, got %d", name, len(VectorModes), len(entries))
		}
		base := entries[0]
		if base.Mode != "vector" {
			t.Fatalf("%s: first entry must be the serial vector mode: %+v", name, base)
		}
		if base.Rows == 0 || base.Reads == 0 {
			t.Fatalf("%s: vector mode produced rows=%d reads=%d; the sweep measured nothing", name, base.Rows, base.Reads)
		}
		for _, e := range entries[1:] {
			if e.Rows != base.Rows {
				t.Errorf("%s mode=%s: %d rows, want %d (vector mode)", name, e.Mode, e.Rows, base.Rows)
			}
			if e.Reads != base.Reads {
				t.Errorf("%s mode=%s: %d reads, want %d (vector mode) — the exchange changed the read pattern",
					name, e.Mode, e.Reads, base.Reads)
			}
		}
		for _, e := range entries {
			if !e.Compiled {
				t.Errorf("%s mode=%s: predicate did not lower to a compiled closure", name, e.Mode)
			}
			if e.DecodesPerRow != 0 {
				t.Errorf("%s mode=%s: %.2f decodes per row, want 0 (warm object cache)", name, e.Mode, e.DecodesPerRow)
			}
		}
	}

	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("artifact not JSON-serializable: %v", err)
	}
}

// benchScanSelect measures the warm selective Company scan, reporting
// allocations and decode counts per scanned object; the run must hold
// decodes at zero.
func benchScanSelect(b *testing.B, mode string) {
	env, err := BuildEnv(0.1)
	if err != nil {
		b.Fatal(err)
	}
	p := vectorPreds()[0] // location = 'Tokyo'
	e, _, err := measureVectorEntry(env, p, mode)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _, err = measureVectorEntry(env, p, mode)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(e.AllocsPerRow, "allocs/row")
	b.ReportMetric(e.DecodesPerRow, "decodes/row")
	b.ReportMetric(e.RowsPerWallSec, "rows/wall-s")
}

func BenchmarkScanSelectVector(b *testing.B) { benchScanSelect(b, "vector") }
