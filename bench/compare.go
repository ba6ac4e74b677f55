package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// spec is BENCHMARK.json: the workloads, and each metric's unit and, for
// end-to-end metrics, direction and regression bound.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so the numbers match a check written against it.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// values collects one metric of one workload across the records.
func values(recs []record, workload string, traced bool, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict judges new against old for an end-to-end metric: worse or better
// when the medians differ by more than the bound, unresolved when either
// side's spread (interquartile range over median) is wider than the bound,
// unless every new run beats every old run.
func verdict(old, new []float64, m specMetric) (string, float64) {
	oq1, omed, oq3 := quartiles(old)
	nq1, nmed, nq3 := quartiles(new)
	r := ratio(nmed, omed)
	gain := r - 1 // > 0 is better
	if m.Better == "lower" {
		gain = 1 - r
	}
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			if (m.Better == "lower" && n >= o) || (m.Better != "lower" && n <= o) {
				allBetter = false
			}
		}
	}
	switch {
	case ratio(oq3-oq1, omed) > m.Bound || ratio(nq3-nq1, nmed) > m.Bound:
		if allBetter {
			return "better", r
		}
		return "unresolved", r
	case gain < -m.Bound:
		return "worse", r
	case gain > m.Bound:
		return "better", r
	}
	return "same", r
}

// compareFiles prints, per workload, each end-to-end metric's medians and
// quartiles on both sides with the ratio, bound and verdict, then the
// traced runs' per-layer counters in a separate section.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	old, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	new, err := readRecords(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "end-to-end (untraced runs; ratio = new/old median)\n")
	fmt.Fprintf(tw, "workload\tmetric\tunit\told q1\told median\told q3\tnew q1\tnew median\tnew q3\tratio\tbound\tverdict\n")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			o, n := values(old, wl.Name, false, m.Name), values(new, wl.Name, false, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			oq1, omed, oq3 := quartiles(o)
			nq1, nmed, nq3 := quartiles(n)
			v, r := verdict(o, n, m)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.3f\t%.2f\t%s\n",
				wl.Name, m.Name, m.Unit, oq1, omed, oq3, nq1, nmed, nq3, r, m.Bound, v)
		}
	}
	fmt.Fprintf(tw, "\nper-layer counters (traced runs; medians)\n")
	fmt.Fprintf(tw, "workload\tmetric\tunit\told\tnew\tratio\n")
	for _, wl := range sp.Workloads {
		for _, m := range sp.PerLayer {
			o, n := values(old, wl.Name, true, m.Name), values(new, wl.Name, true, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			_, omed, _ := quartiles(o)
			_, nmed, _ := quartiles(n)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\n", wl.Name, m.Name, m.Unit, omed, nmed, ratio(nmed, omed))
		}
	}
	return tw.Flush()
}
