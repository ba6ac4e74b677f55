// Command moodbench regenerates every table and figure of the paper:
//
//	moodbench                 # everything, at the default 1/10 scale
//	moodbench -scale 1.0      # the paper's full Table 13 cardinalities
//	moodbench -only table16   # one artifact
//	moodbench -list           # list artifact names
//
// Artifacts: table1, table2, tables3to7, table8, table9, table10,
// tables11and12, tables13to15, table16, table17, example81, example82,
// figure71, figure72, joinsweep, pathorder, selectivity, indexrule,
// parallel, cache, vector, shard, cluster, commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"mood/internal/experiments"
)

type artifact struct {
	name string
	desc string
	run  func(io.Writer, *experiments.Env) error
}

func artifacts() []artifact {
	return []artifact{
		{"table1", "Select operator return types", experiments.Table1},
		{"table2", "Join operator return-type matrix", experiments.Table2},
		{"tables3to7", "DupElim/set-op/conversion return types", func(w io.Writer, _ *experiments.Env) error {
			experiments.Tables3to7(w)
			return nil
		}},
		{"table8", "cost model parameters (measured)", func(w io.Writer, e *experiments.Env) error {
			experiments.Table8(w, e)
			return nil
		}},
		{"table9", "B+-tree parameters", experiments.Table9},
		{"table10", "physical disk parameters", func(w io.Writer, e *experiments.Env) error {
			experiments.Table10(w, e)
			return nil
		}},
		{"tables11and12", "ImmSelInfo / PathSelInfo dictionaries", experiments.Tables11and12},
		{"tables13to15", "example database statistics", func(w io.Writer, e *experiments.Env) error {
			experiments.Tables13to15(w, e)
			return nil
		}},
		{"table16", "Example 8.1 PathSelInfo (paper anchors)", experiments.Table16},
		{"table17", "Example 8.2 initial estimations", experiments.Table17},
		{"example81", "Example 8.1 access plan", experiments.Example81Plan},
		{"example82", "Example 8.2 access plan", experiments.Example82Plan},
		{"figure71", "clause execution order", experiments.Figure71},
		{"figure72", "WHERE-clause operator order", experiments.Figure72},
		{"joinsweep", "join-method crossover, measured vs predicted", experiments.JoinMethodSweep},
		{"pathorder", "Algorithm 8.1 ordering benefit", experiments.PathOrderingSweep},
		{"selectivity", "estimated vs actual path selectivity", experiments.SelectivityAccuracy},
		{"indexrule", "8.1 index-selection rule sweep", experiments.IndexSelectionSweep},
		{"parallel", "morsel-driven exchange scaling, workers=1/2/4/8", experiments.ParallelScaling},
		{"cache", "object-cache sweep, cache=0/64KiB/1MiB", experiments.CacheSweep},
		{"vector", "vectorized execution with compiled predicates, serial vs exchange", experiments.VectorSweep},
		{"shard", "sharded-store scaling, shards=1/2/4", experiments.ShardScaling},
		{"joinpaths", "join access paths, forward vs join-index vs hash vs fusion", experiments.JoinAccessSweep},
		{"cluster", "reference clustering, scattered vs reorganized cold traversal", experiments.ClusterSweep},
		{"commit", "group-commit throughput, sessions=1/8/32 + snapshot/plan-cache phases", experiments.CommitThroughput},
	}
}

// writeShardJSON runs the sharded-store sweep of experiments.MeasureShard
// and writes the result as JSON. Rows, page reads and record densities are
// deterministic — the sweep itself fails if the read totals differ across
// shard counts; the wall-clock columns (wall_ms, rows_per_wall_sec,
// commits_per_sec, the speedups) are real measurements and vary run to run.
// The sweep builds its own fixed-size-record extents, so -scale is ignored.
func writeShardJSON(path string) error {
	res, err := experiments.MeasureShard(0, 0)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeVectorJSON runs the vectorized-execution sweep of
// experiments.MeasureVector and writes the result as JSON. Rows, page reads,
// simulated time, decode counts and the compiled flags are deterministic;
// the wall-clock and allocation columns are real measurements and vary run
// to run.
func writeVectorJSON(path string, scale float64) error {
	env, err := experiments.BuildEnv(experiments.Scale(scale))
	if err != nil {
		return fmt.Errorf("building environment: %w", err)
	}
	res, err := experiments.MeasureVector(env)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeBenchJSON measures the representative operation set of
// experiments.MeasureBaseline (bulk flush, cold extent scans, the Section 6
// join strategies) and writes the result as JSON. All numbers are simulated
// disk metrics from seeded data, so the file is byte-stable across machines
// and reruns — suitable for checking in and diffing against.
func writeBenchJSON(path string, scale float64) error {
	env, err := experiments.BuildEnv(experiments.Scale(scale))
	if err != nil {
		return fmt.Errorf("building environment: %w", err)
	}
	base, err := experiments.MeasureBaseline(env)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeParallelJSON runs the worker-count sweep of experiments.MeasureParallel
// and writes the result as JSON. Rows, page reads and simulated time are
// deterministic across machines and worker counts; the wall-clock columns
// (wall_ms, rows_per_wall_sec, speedup) are real measurements and vary run
// to run — the file is a scaling snapshot, not a byte-stable artifact.
func writeParallelJSON(path string, scale float64) error {
	env, err := experiments.BuildEnv(experiments.Scale(scale))
	if err != nil {
		return fmt.Errorf("building environment: %w", err)
	}
	res, err := experiments.MeasureParallel(env, 0)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeCacheJSON runs the object-cache sweep of experiments.MeasureCache and
// writes the result as JSON. Rows, page reads, simulated time, hit rates and
// decode counts are deterministic; the wall-clock and allocation columns are
// real measurements and vary run to run.
func writeCacheJSON(path string, scale float64) error {
	env, err := experiments.BuildEnv(experiments.Scale(scale))
	if err != nil {
		return fmt.Errorf("building environment: %w", err)
	}
	res, err := experiments.MeasureCache(env, 0)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeJoinJSON runs the join-access-path sweep of experiments.MeasureJoin
// (deep-path and many-to-many joins through forward traversal, the binary
// join index, hash partition and the fusion join; latency replay on, best of
// N) and writes the result as JSON. Rows, fingerprints and page reads are
// deterministic — the sweep itself fails if reads vary across repetitions or
// rows diverge across access paths; the wall-clock columns are real
// measurements and vary run to run. It also enforces the 5x acceptance floor
// on the 3-hop path query. The sweep builds its own extents, so -scale is
// ignored.
func writeJoinJSON(path string) error {
	res, err := experiments.MeasureJoin(0)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeClusterJSON runs the clustering protocol of experiments.MeasureCluster
// (scattered cold traversal -> traced passes -> online reorganization ->
// clustered cold traversal) and writes the result as JSON. Rows, reads,
// simulated time, moved/compacted counts and the read reduction are
// deterministic; wall_ms varies run to run. The protocol builds its own
// deliberately scattered extents, so -scale is ignored.
func writeClusterJSON(path string) error {
	res, err := experiments.MeasureCluster(0)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeCommitJSON runs the commit-pipeline sweep of experiments.MeasureCommit
// (mixed read/write sessions at 1/8/32, group commit off/on over a 1ms
// simulated fsync, plus the snapshot lock-freedom and plan-cache hit-rate
// phases) and writes the result as JSON. Txn/read/force counts and the two
// phase verdicts are deterministic; the wall-clock columns (wall_ms,
// commits_per_sec, the percentiles, the speedups) are real measurements and
// vary run to run. The sweep enforces its acceptance floors itself — it
// errors rather than writing a file that fails them. The sweep builds its
// own extents, so -scale is ignored.
func writeCommitJSON(path string) error {
	res, err := experiments.MeasureCommit(0)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	scale := flag.Float64("scale", 0.1, "database scale relative to the paper's Table 13 (1.0 = 20000 vehicles, 200000 companies)")
	only := flag.String("only", "", "run a single artifact (see -list)")
	list := flag.Bool("list", false, "list artifact names and exit")
	benchJSON := flag.String("bench-json", "", "write a JSON baseline of per-artifact simulated I/O to this file and exit")
	parallelJSON := flag.String("parallel-json", "", "write the workers=1/2/4/8 parallel scaling sweep to this file and exit")
	cacheJSON := flag.String("cache-json", "", "write the object-cache sweep (cache=0/64KiB/1MiB) to this file and exit")
	vectorJSON := flag.String("vector-json", "", "write the vectorized-execution sweep (vector/vector-parallel) to this file and exit")
	shardJSON := flag.String("shard-json", "", "write the sharded-store sweep (shards=1/2/4, queries + commit throughput) to this file and exit")
	joinJSON := flag.String("join-json", "", "write the join-access-path sweep (forward/join-index/hash/fusion) to this file and exit")
	clusterJSON := flag.String("cluster-json", "", "write the clustering protocol (scattered vs reorganized cold traversal) to this file and exit")
	commitJSON := flag.String("commit-json", "", "write the group-commit sweep (sessions=1/8/32, off/on, p50/p99 + snapshot/plan-cache phases) to this file and exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the run executes")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
	}

	arts := artifacts()
	if *list {
		for _, a := range arts {
			fmt.Printf("%-16s %s\n", a.name, a.desc)
		}
		return
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (scale %g)\n", *benchJSON, *scale)
		return
	}
	if *parallelJSON != "" {
		if err := writeParallelJSON(*parallelJSON, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "parallel-json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (scale %g)\n", *parallelJSON, *scale)
		return
	}
	if *cacheJSON != "" {
		if err := writeCacheJSON(*cacheJSON, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "cache-json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (scale %g)\n", *cacheJSON, *scale)
		return
	}
	if *vectorJSON != "" {
		if err := writeVectorJSON(*vectorJSON, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "vector-json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (scale %g)\n", *vectorJSON, *scale)
		return
	}
	if *shardJSON != "" {
		if err := writeShardJSON(*shardJSON); err != nil {
			fmt.Fprintln(os.Stderr, "shard-json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *shardJSON)
		return
	}
	if *joinJSON != "" {
		if err := writeJoinJSON(*joinJSON); err != nil {
			fmt.Fprintln(os.Stderr, "join-json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *joinJSON)
		return
	}
	if *clusterJSON != "" {
		if err := writeClusterJSON(*clusterJSON); err != nil {
			fmt.Fprintln(os.Stderr, "cluster-json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *clusterJSON)
		return
	}
	if *commitJSON != "" {
		if err := writeCommitJSON(*commitJSON); err != nil {
			fmt.Fprintln(os.Stderr, "commit-json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *commitJSON)
		return
	}

	fmt.Printf("MOOD experiment harness - scale %g (paper scale = 1.0)\n", *scale)
	env, err := experiments.BuildEnv(experiments.Scale(*scale))
	if err != nil {
		fmt.Fprintln(os.Stderr, "building environment:", err)
		os.Exit(1)
	}
	fmt.Printf("database: %d vehicles, %d drivetrains, %d engines, %d companies\n",
		env.Cfg.Vehicles, env.Cfg.DriveTrains, env.Cfg.Engines, env.Cfg.Companies)

	ran := 0
	for _, a := range arts {
		if *only != "" && !strings.EqualFold(a.name, *only) {
			continue
		}
		if err := a.run(os.Stdout, env); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.name, err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown artifact %q (use -list)\n", *only)
		os.Exit(1)
	}
}
