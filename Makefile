# MOOD — build and verification entry points.
#
#   make build           compile every package and command
#   make test            full test suite
#   make race            full test suite under the race detector
#   make vet             static analysis
#   make crashtest       the seeded crash/recovery torture harness:
#                        single-store, sharded, and mid-migration cluster
#                        modes (CRASHTEST_ITERS=n to scale, CRASHTEST_SEED=n
#                        to replay one failing iteration)
#   make bench-baseline  regenerate BENCH_baseline.json (simulated I/O of a
#                        representative operation set; deterministic)
#   make bench-parallel  regenerate BENCH_parallel.json (morsel-exchange
#                        scaling at workers=1/2/4/8; reads/sim-time columns
#                        deterministic, wall-clock columns machine-local)
#   make bench-exec      executor microbenchmarks (streaming pipeline,
#                        per-row env hoist) with allocation stats
#   make bench-cache     regenerate BENCH_cache.json (object-cache sweep at
#                        cache=0/64KiB/1MiB; reads/hit-rate/decode columns
#                        deterministic, wall-clock columns machine-local)
#   make bench-vector    regenerate BENCH_vector.json (batch-at-a-time
#                        scans with compiled predicates, serial vs a
#                        4-worker exchange; rows/reads/decode columns
#                        deterministic, wall-clock and speedup columns
#                        machine-local) plus the vector scan microbenchmark
#   make bench-shard     regenerate BENCH_shard.json (sharded-store sweep at
#                        shards=1/2/4: scan + hash-join reads must match
#                        across shard counts, insert+update commit
#                        throughput must scale; rows/reads deterministic,
#                        wall-clock and speedup columns machine-local)
#   make exec-race       the executor/algebra/kernel suites under the race
#                        detector (the streaming pipeline's hot path)
#   make parallel-race   every parallel-execution test under the race
#                        detector (exchange operators, sharded pool, bench)
#   make cache-race      the object-cache stack under the race detector
#                        (2Q cache, batch fetch, prefetcher, the kernel's
#                        writer/reader invalidation torture)
#   make vector-race     the vectorized-execution wall under the race
#                        detector (batch-boundary edges, the three-way
#                        differential, expr compile-vs-interpret equality)
#   make shard-race      the sharded-store wall under the race detector
#                        (differential wall at shards=1/2/4, commit
#                        throughput, sharded storage + crash torture)
#   make bench-cluster   regenerate BENCH_cluster.json (clustering protocol:
#                        scattered cold traversal -> trace -> online
#                        reorganization -> clustered cold traversal;
#                        rows/reads/moved deterministic and the read
#                        reduction must clear 2x, wall-clock machine-local)
#                        plus the warm-traversal tracer-overhead benchmarks
#   make cluster-race    the clustering stack under the race detector
#                        (tracer stripes, migration + compaction, the
#                        reorganize-vs-reader/writer torture, the
#                        mid-migration crashtest mode)
#   make bench-commit    regenerate BENCH_commit.json (group-commit sweep:
#                        mixed read/write sessions at 1/8/32 over a 1ms
#                        simulated fsync, off vs on, commits/sec + p50/p99,
#                        plus the snapshot lock-freedom and plan-cache
#                        hit-rate phases; the sweep enforces its >=3x floor
#                        itself) plus the warm-plan allocation benchmarks
#   make commit-race     the commit pipeline under the race detector (group
#                        commit, MVCC snapshots, plan cache, the
#                        crash-during-group-commit torture, the sweep)
#   make bench-join      regenerate BENCH_join.json (join access paths on a
#                        3-hop chain and a many-to-many fan: forward vs
#                        join-index vs hash vs fusion, cold, under latency
#                        replay; rows/fingerprints/reads deterministic,
#                        wall-clock and speedup columns machine-local; the
#                        sweep enforces its >=5x floor itself)
#   make join-race       the join access-path wall under the race detector
#                        (differential wall across all four methods at
#                        shards=1/2/4, BJI shard routing, the concurrent
#                        maintenance torture, the mid-maintenance
#                        crashtest mode, the sweep)
#   make fuzz-expr       bounded 30s fuzz of expr.Compile against the
#                        interpreter (corpus seeds under
#                        internal/expr/testdata/fuzz)
#   make ci              everything a pre-merge check runs

GO ?= go
CRASHTEST_ITERS ?= 120
FUZZ_EXPR_TIME ?= 30s

.PHONY: build test race vet crashtest bench-baseline bench-parallel \
	bench-exec bench-cache bench-vector bench-shard bench-cluster \
	bench-commit bench-join exec-race parallel-race cache-race vector-race \
	shard-race cluster-race commit-race join-race fuzz-expr ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

crashtest:
	CRASHTEST_ITERS=$(CRASHTEST_ITERS) $(GO) test -race -v -run 'TestTorture|TestTornWrite|TestRunIsDeterministic|TestShardedTorture|TestRunShardedIsDeterministic|TestRunClusterIsDeterministic|TestRunJoinIndexIsDeterministic|TestGroupCommitCrashTorture|TestRunGroupFaultFree|TestRunGroupIsDeterministic' ./internal/crashtest

bench-baseline:
	$(GO) run ./cmd/moodbench -bench-json BENCH_baseline.json

bench-parallel:
	$(GO) run ./cmd/moodbench -parallel-json BENCH_parallel.json

bench-exec:
	$(GO) test -bench 'BenchmarkSelect' -benchmem -run '^$$' ./internal/algebra
	$(GO) test -bench . -benchmem -run '^$$' ./internal/exec

exec-race:
	$(GO) test -race ./internal/exec ./internal/algebra ./internal/kernel

parallel-race:
	$(GO) test -race -run Parallel ./internal/...

bench-cache:
	$(GO) run ./cmd/moodbench -cache-json BENCH_cache.json
	$(GO) test -bench 'BenchmarkPathTraversal' -benchmem -run '^$$' ./internal/experiments

cache-race:
	$(GO) test -race ./internal/objcache
	$(GO) test -race -run 'Cache|FetchBatch|Prefetcher|Invalidator' \
		./internal/storage ./internal/catalog ./internal/kernel

bench-vector:
	$(GO) run ./cmd/moodbench -vector-json BENCH_vector.json
	$(GO) test -bench 'BenchmarkScanSelect' -benchmem -run '^$$' ./internal/experiments

vector-race:
	$(GO) test -race -run 'Batch|Differential|Vector|Compile' \
		./internal/exec ./internal/expr ./internal/experiments ./internal/kernel

bench-shard:
	$(GO) run ./cmd/moodbench -shard-json BENCH_shard.json

shard-race:
	$(GO) test -race -run 'Sharded' ./internal/storage ./internal/kernel ./internal/crashtest

bench-cluster:
	$(GO) run ./cmd/moodbench -cluster-json BENCH_cluster.json
	$(GO) test -bench 'BenchmarkWarmTraversalCluster' -benchmem -run '^$$' ./internal/kernel

cluster-race:
	$(GO) test -race ./internal/cluster
	$(GO) test -race -run 'Cluster|Migrate|Reorganize|Forward' \
		./internal/storage ./internal/kernel ./internal/crashtest ./internal/experiments

bench-commit:
	$(GO) run ./cmd/moodbench -commit-json BENCH_commit.json
	$(GO) test -bench 'BenchmarkPreparedQueryWarm|BenchmarkExecuteCold' -benchmem -run '^$$' ./internal/kernel

commit-race:
	$(GO) test -race -run 'GroupCommit|RunGroup|Snapshot|PlanCache|Prepared|MeasureCommit' \
		./internal/wal ./internal/kernel ./internal/crashtest ./internal/experiments

bench-join:
	$(GO) run ./cmd/moodbench -join-json BENCH_join.json

join-race:
	$(GO) test -race ./internal/joinindex
	$(GO) test -race -run 'Join|Fusion|BJI' \
		./internal/cost ./internal/optimizer ./internal/exec \
		./internal/kernel ./internal/crashtest

fuzz-expr:
	$(GO) test -fuzz FuzzCompile -fuzztime $(FUZZ_EXPR_TIME) -run '^FuzzCompile$$' ./internal/expr

ci: build vet test race exec-race parallel-race cache-race vector-race shard-race cluster-race commit-race join-race fuzz-expr bench-vector bench-shard bench-cluster bench-commit bench-join crashtest
