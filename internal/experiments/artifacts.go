package experiments

import "io"

// Artifact is one table, figure or sweep moodbench regenerates.
type Artifact struct {
	Name string
	Desc string
	// Replay marks the paper replay: the tables, the examples, the figures
	// and the sweeps that print simulated numbers only, whose output is
	// byte-identical from run to run. TestPaperReplayGolden runs them in
	// this order on one Env.
	Replay bool
	Run    func(io.Writer, *Env) error
}

// Artifacts lists every artifact in moodbench's order.
func Artifacts() []Artifact {
	return []Artifact{
		{"table1", "Select operator return types", true, Table1},
		{"table2", "Join operator return-type matrix", true, Table2},
		{"tables3to7", "DupElim/set-op/conversion return types", true, func(w io.Writer, _ *Env) error {
			Tables3to7(w)
			return nil
		}},
		{"table8", "cost model parameters (measured)", true, func(w io.Writer, e *Env) error {
			Table8(w, e)
			return nil
		}},
		{"table9", "B+-tree parameters", true, Table9},
		{"table10", "physical disk parameters", true, func(w io.Writer, e *Env) error {
			Table10(w, e)
			return nil
		}},
		{"tables11and12", "ImmSelInfo / PathSelInfo dictionaries", true, Tables11and12},
		{"tables13to15", "example database statistics", true, func(w io.Writer, e *Env) error {
			Tables13to15(w, e)
			return nil
		}},
		{"table16", "Example 8.1 PathSelInfo (paper anchors)", true, Table16},
		{"table17", "Example 8.2 initial estimations", true, Table17},
		{"example81", "Example 8.1 access plan", true, Example81Plan},
		{"example82", "Example 8.2 access plan", true, Example82Plan},
		{"figure71", "clause execution order", true, Figure71},
		{"figure72", "WHERE-clause operator order", true, Figure72},
		{"joinsweep", "join-method crossover, measured vs predicted", true, JoinMethodSweep},
		{"pathorder", "Algorithm 8.1 ordering benefit", true, PathOrderingSweep},
		{"selectivity", "estimated vs actual path selectivity", true, SelectivityAccuracy},
		{"indexrule", "8.1 index-selection rule sweep", true, IndexSelectionSweep},
		{"parallel", "morsel-driven exchange scaling, workers=1/2/4/8", false, ParallelScaling},
		{"cache", "object-cache sweep, cache=0/64KiB/1MiB", false, CacheSweep},
		{"vector", "vectorized execution with compiled predicates, serial vs exchange", false, VectorSweep},
		{"shard", "sharded-store scaling, shards=1/2/4", false, ShardScaling},
		{"joinpaths", "join access paths, forward vs join-index vs hash vs fusion", false, JoinAccessSweep},
		{"cluster", "reference clustering, scattered vs reorganized cold traversal", false, ClusterSweep},
		{"commit", "group-commit throughput, sessions=1/8/32 + snapshot/plan-cache phases", false, CommitThroughput},
	}
}
