// Command bench is MOOD's end-to-end benchmark: the paper's path queries
// over the Vehicle database (Tables 13–15, Examples 8.1 and 8.2), warm and
// cold, and beside a committing writer, driven through the public kernel
// API by closed-loop clients. A traced pass attributes the time to each
// layer. See README.md.
//
//	bench -workload query-warm -seed 1 -seconds 20 -trace 0 [-out runs.jsonl]
//	bench -workload mixed-rw -seed 7 -ops 200 -trace 1
//	bench -compare old.jsonl new.jsonl
//
// The last line printed by a run is one JSON object: correct, attempted,
// failed, and the metrics, each with its unit. A wrong result makes the
// run exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// warmup is the untimed load before each window: it fills the object cache
// and brings the buffer pool to its steady state.
const warmup = 3 * time.Second

// setupBuilds is how many times a run builds the database; setup_s is their
// median.
const setupBuilds = 5

// record is one run as -out appends it: the printed result plus what was
// run.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Ops      int     `json:"ops,omitempty"`
	Trace    bool    `json:"trace"`
	result
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name     = flag.String("workload", "query-warm", "workload to run: query-warm, query-cold or mixed-rw")
		seed     = flag.Int64("seed", 1, "seed the query constants and the writer's choices are drawn from")
		seconds  = flag.Float64("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		ops      = flag.Int("ops", 0, "run this many operations on one goroutine instead of a timed window")
		outPath  = flag.String("out", "", "append the run's record to this file, one JSON object per line")
		traceOut = flag.String("trace-out", ".bench_build/trace.jsonl", "where a traced run writes its spans; empty writes none")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare old.jsonl new.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.jsonl new.jsonl")
			return 2
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *ops < 0 {
		fmt.Fprintf(os.Stderr, "bench: bad flags (workload %q, seconds %v, trace %d, ops %d)\n", *name, *seconds, *trace, *ops)
		return 2
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		builds:   setupBuilds,
		warmup:   warmup,
		window:   time.Duration(*seconds * float64(time.Second)),
		ops:      *ops,
		trace:    *trace == 1,
		traceOut: *traceOut,
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res := report(o, cfg.trace)
	if *outPath != "" {
		rec := record{Workload: w.name, Seed: cfg.seed, Seconds: *seconds, Ops: cfg.ops, Trace: cfg.trace, result: res}
		if err := appendRecord(*outPath, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	line, err := jsonLine(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	os.Stdout.Write(line)
	if !res.Correct {
		return 1
	}
	return 0
}

func jsonLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

func appendRecord(path string, rec record) error {
	line, err := jsonLine(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
