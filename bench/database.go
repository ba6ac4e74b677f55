package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mood/internal/experiments"
	"mood/internal/kernel"
	"mood/internal/storage"
	"mood/internal/vehicledb"
)

// workload is one configuration of the benchmark's database and clients.
type workload struct {
	name string
	// frames and cacheBytes size the buffer pool and the object cache; they
	// are the only kernel options the benchmark changes from the defaults.
	frames     int
	cacheBytes int64
	// diskLatency is the wall time DiskSim sleeps per simulated millisecond.
	diskLatency time.Duration
	// writer makes client 0 run write transactions instead of queries.
	writer bool
	why    string
}

var workloads = []workload{
	{
		name: "query-warm", frames: 4096, cacheBytes: 32 << 20,
		why: "paper path queries on a memory-resident database: sql, stats, optimizer, exec and objcache do the work, storage and wal none",
	},
	{
		name: "query-cold", frames: 128, diskLatency: 4 * time.Microsecond,
		why: "the same queries with a pool 1/6 of the database, no object cache and slow page reads: access paths and storage dominate",
	},
	{
		name: "mixed-rw", frames: 4096, cacheBytes: 32 << 20, writer: true,
		why: "a Zipf read-modify-write committer beside a paper-mix reader on one database: read-path and commit-path costs trade here",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// indexDDL are the access paths every workload's database carries: a unique
// key index, an index under Example 8.2's path, one under Example 8.1's,
// and a maintained binary join index on Vehicle.manufacturer.
var indexDDL = []string{
	"CREATE UNIQUE INDEX vid ON Vehicle(id)",
	"CREATE INDEX ecyl ON VehicleEngine(cylinders)",
	"CREATE INDEX cname ON Company(name)",
	"CREATE JOIN INDEX vm ON Vehicle(manufacturer)",
}

// syncDelay is the cost of one WAL force; every commit forces its log.
const syncDelay = time.Millisecond

// buildDB creates and populates one database: the Vehicle schema at 1/10 of
// Table 13, the indexes, fresh statistics and a checkpoint. It returns the
// Vehicle OIDs the writer updates.
func buildDB(w workload) (*kernel.DB, []storage.OID, error) {
	opts := kernel.DefaultOptions()
	opts.BufferFrames = w.frames
	opts.ObjectCacheBytes = w.cacheBytes
	db, err := kernel.Open(opts)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*kernel.DB, []storage.OID, error) {
		db.Close()
		return nil, nil, err
	}
	if err := vehicledb.DefineSchema(db.Cat); err != nil {
		return fail(fmt.Errorf("define schema: %w", err))
	}
	vdb, err := vehicledb.Populate(db.Cat, experiments.Scale(0.1).Config())
	if err != nil {
		return fail(fmt.Errorf("populate: %w", err))
	}
	for _, ddl := range indexDDL {
		if _, err := db.Execute(ddl); err != nil {
			return fail(fmt.Errorf("%s: %w", ddl, err))
		}
	}
	if err := db.RefreshStats(); err != nil {
		return fail(fmt.Errorf("refresh stats: %w", err))
	}
	if err := db.Checkpoint(); err != nil {
		return fail(fmt.Errorf("checkpoint: %w", err))
	}
	return db, vdb.Vehicles, nil
}

// setup builds the database n times (at least twice) and keeps the last
// build for the run. The oracle navigates the first build, so its reads
// leave no trace in the measured database's caches. It returns the median
// time of the first n builds; the oracle is not timed.
func setup(w workload, n int) (*kernel.DB, []storage.OID, *oracle, float64, error) {
	var (
		db       *kernel.DB
		vehicles []storage.OID
		orc      *oracle
		times    []float64
	)
	for i := 0; i < max(n, 2); i++ {
		if db != nil {
			db.Close()
			db = nil
		}
		// Collect the previous build's garbage now, so no build pays for
		// another's.
		runtime.GC()
		t0 := time.Now()
		var err error
		if db, vehicles, err = buildDB(w); err != nil {
			return nil, nil, nil, 0, err
		}
		if i < n {
			times = append(times, time.Since(t0).Seconds())
		}
		if i == 0 {
			if orc, err = buildOracle(db.Cat); err != nil {
				db.Close()
				return nil, nil, nil, 0, err
			}
		}
	}
	for _, sh := range db.Shards {
		sh.Log.SetSyncDelay(syncDelay)
		sh.Disk.SetLatency(w.diskLatency)
	}
	sort.Float64s(times)
	return db, vehicles, orc, times[len(times)/2], nil
}
