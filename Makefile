# MOOD — build and verification entry points.
#
#   make build           compile every package and command
#   make test            full test suite
#   make race            full test suite under the race detector (every
#                        package, the parallel, cache, shard, cluster,
#                        commit and join walls included), plus the
#                        end-to-end benchmark module's short tests
#   make vet             static analysis, and gofmt must list no file of
#                        the repository or of bench/
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
#   make bench-cluster   regenerate BENCH_cluster.json (clustering protocol:
#                        scattered cold traversal -> trace -> online
#                        reorganization -> clustered cold traversal;
#                        rows/reads/moved deterministic and the read
#                        reduction must clear 2x, wall-clock machine-local)
#                        plus the warm-traversal tracer-overhead benchmarks
#   make bench-commit    regenerate BENCH_commit.json (group-commit sweep:
#                        mixed read/write sessions at 1/8/32 over a 1ms
#                        simulated fsync, off vs on, commits/sec + p50/p99,
#                        plus the snapshot lock-freedom and plan-cache
#                        hit-rate phases; the sweep enforces its >=3x floor
#                        itself) plus the warm-plan allocation benchmarks
#   make bench-join      regenerate BENCH_join.json (join access paths on a
#                        3-hop chain and a many-to-many fan: forward vs
#                        join-index vs hash vs fusion, cold, under latency
#                        replay; rows/fingerprints/reads deterministic,
#                        wall-clock and speedup columns machine-local; the
#                        sweep enforces its >=5x floor itself)
#   make fuzz            bounded fuzzing, 15s per target: expr.Compile
#                        against the interpreter (FuzzCompile), the
#                        record decoders against each other (FuzzDecode)
#                        and the slotted page against a map model
#                        (FuzzPage); corpus seeds under
#                        internal/expr/testdata/fuzz and
#                        internal/object/testdata/fuzz
#   make ci              everything a pre-merge check runs

GO ?= go
CRASHTEST_ITERS ?= 120
FUZZ_TIME ?= 15s

.PHONY: build test race vet crashtest bench-baseline bench-parallel \
	bench-exec bench-cache bench-vector bench-shard bench-cluster \
	bench-commit bench-join fuzz ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	cd bench && $(GO) test -race -short ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . bench); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

crashtest:
	CRASHTEST_ITERS=$(CRASHTEST_ITERS) $(GO) test -race -v -run 'TestTorture|TestTornWrite|TestRunIsDeterministic|TestShardedTorture|TestRunShardedIsDeterministic|TestRunClusterIsDeterministic|TestRunJoinIndexIsDeterministic|TestGroupCommitCrashTorture|TestRunGroupFaultFree|TestRunGroupIsDeterministic' ./internal/crashtest

bench-baseline:
	$(GO) run ./cmd/moodbench -bench-json BENCH_baseline.json

bench-parallel:
	$(GO) run ./cmd/moodbench -parallel-json BENCH_parallel.json

bench-exec:
	$(GO) test -bench 'BenchmarkSelect' -benchmem -run '^$$' ./internal/algebra
	$(GO) test -bench . -benchmem -run '^$$' ./internal/exec

bench-cache:
	$(GO) run ./cmd/moodbench -cache-json BENCH_cache.json
	$(GO) test -bench 'BenchmarkPathTraversal' -benchmem -run '^$$' ./internal/experiments

bench-vector:
	$(GO) run ./cmd/moodbench -vector-json BENCH_vector.json
	$(GO) test -bench 'BenchmarkScanSelect' -benchmem -run '^$$' ./internal/experiments

bench-shard:
	$(GO) run ./cmd/moodbench -shard-json BENCH_shard.json

bench-cluster:
	$(GO) run ./cmd/moodbench -cluster-json BENCH_cluster.json
	$(GO) test -bench 'BenchmarkWarmTraversalCluster' -benchmem -run '^$$' ./internal/kernel

bench-commit:
	$(GO) run ./cmd/moodbench -commit-json BENCH_commit.json
	$(GO) test -bench 'BenchmarkPreparedQueryWarm|BenchmarkExecuteCold' -benchmem -run '^$$' ./internal/kernel

bench-join:
	$(GO) run ./cmd/moodbench -join-json BENCH_join.json

fuzz:
	$(GO) test -fuzz FuzzCompile -fuzztime $(FUZZ_TIME) -run '^FuzzCompile$$' ./internal/expr
	$(GO) test -fuzz FuzzDecode -fuzztime $(FUZZ_TIME) -run '^FuzzDecode$$' ./internal/object
	$(GO) test -fuzz FuzzPage -fuzztime $(FUZZ_TIME) -run '^FuzzPage$$' ./internal/storage

ci: build vet test race fuzz bench-vector bench-shard bench-cluster bench-commit bench-join crashtest
