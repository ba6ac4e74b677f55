package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/exec"
	"mood/internal/kernel"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/storage"
)

// ShardCounts is the shard-count sweep measured by MeasureShard.
var ShardCounts = []int{1, 2, 4}

const (
	// shardBenchWorkers is the exchange degree used for every query entry,
	// so the only variable across a sweep is the shard count.
	shardBenchWorkers = 4
	// shardCommitWorkers/shardCommitTxs size the commit-throughput phase.
	shardCommitWorkers = 8
	shardCommitTxs     = 25
	// DefaultShardSyncDelay is the simulated fsync latency charged on every
	// log force during the commit phase. One stream of forces through one
	// WAL serializes on it; N independent WALs overlap N forces — which is
	// the effect the sharded store exists to exploit.
	DefaultShardSyncDelay = time.Millisecond
	// shardIntBase/shardIntSpan keep every generated integer inside one
	// zigzag-varint length band (2 bytes), part of the fixed-record-size
	// guarantee below.
	shardIntBase = 1000
	shardIntSpan = 7000
	// shardItemPad is the BenchItem filler; fixed length by construction.
	shardItemPad = "xxxxxxxxxxxxxxxxxxxxxxxx"
)

// ShardQueryEntry is one measured (benchmark, shard count) configuration.
// Rows and Reads are deterministic and must be identical across shard
// counts for the same benchmark name — MeasureShard fails if they are not.
// WallMs and the derived columns are wall-clock measurements.
type ShardQueryEntry struct {
	Name           string  `json:"name"`
	Shards         int     `json:"shards"`
	Rows           int     `json:"rows"`
	Reads          int64   `json:"reads"`
	SimulatedMs    float64 `json:"simulated_ms"`
	WallMs         float64 `json:"wall_ms"`
	RowsPerWallSec float64 `json:"rows_per_wall_sec"`
	Speedup        float64 `json:"speedup_vs_shards_1"`
}

// ShardCommitEntry is one measured commit-throughput configuration.
type ShardCommitEntry struct {
	Shards        int     `json:"shards"`
	Workers       int     `json:"workers"`
	Txns          int     `json:"txns"`
	WallMs        float64 `json:"wall_ms"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	Speedup       float64 `json:"speedup_vs_shards_1"`
}

// BenchShard is the JSON artifact written by moodbench -shard-json.
type BenchShard struct {
	Items             int                `json:"items"`
	Owners            int                `json:"owners"`
	ItemsPerPage      int                `json:"items_per_page"`
	OwnersPerPage     int                `json:"owners_per_page"`
	LatencyUsPerSimMs float64            `json:"latency_us_per_sim_ms"`
	SyncDelayMs       float64            `json:"sync_delay_ms"`
	Queries           []ShardQueryEntry  `json:"queries"`
	Commits           []ShardCommitEntry `json:"commits"`
	// CommitSpeedupN4 is the acceptance number: insert+update commits/sec
	// at four shards relative to the single store.
	CommitSpeedupN4 float64 `json:"commit_speedup_n4"`
}

// The bench schema uses records of one exact encoded size each:
// every integer falls in one varint length band, every string has a fixed
// length, and references encode as fixed eight-byte OIDs regardless of the
// shard tag. With fixed-size records and round-robin placement, every part
// of an extent packs records at the same density, so when the record count
// is a multiple of 4*recordsPerPage the extent occupies exactly the same
// number of data pages at shards=1, 2 and 4 — which is what lets the sweep
// demand identical read totals across shard counts.

func defineShardBenchSchema(cat *catalog.Catalog) error {
	if _, err := cat.DefineClass("BenchOwner", object.TupleOf(
		object.Field{Name: "name", Type: object.StringN(16)},
		object.Field{Name: "tag", Type: object.TInteger},
	), nil, nil); err != nil {
		return err
	}
	_, err := cat.DefineClass("BenchItem", object.TupleOf(
		object.Field{Name: "k", Type: object.TInteger},
		object.Field{Name: "pad", Type: object.StringN(24)},
		object.Field{Name: "owner", Type: object.RefTo("BenchOwner")},
	), nil, nil)
	return err
}

func shardOwnerTuple(i int) object.Value {
	return object.NewTuple(
		[]string{"name", "tag"},
		[]object.Value{
			object.NewString(fmt.Sprintf("owner-%05d", i%100000)),
			object.NewInt(int32(shardIntBase + i%shardIntSpan)),
		},
	)
}

func shardItemTuple(i int, owner storage.OID) object.Value {
	return object.NewTuple(
		[]string{"k", "pad", "owner"},
		[]object.Value{
			object.NewInt(int32(shardIntBase + i%shardIntSpan)),
			object.NewString(shardItemPad),
			object.NewRef(owner),
		},
	)
}

func shardBenchOptions(nshards int) kernel.Options {
	opts := kernel.DefaultOptions()
	// Per-shard frames sized to hold the whole working set even unsharded,
	// so every measured page read is a first touch and the read totals the
	// sweep compares are deterministic.
	opts.BufferFrames = 2048
	opts.ShardCount = nshards
	return opts
}

// probeRecordsPerPage inserts fixture records into a scratch class extent
// until it has grown to four data pages and returns the records-per-page
// density, verifying every page (the first included) packs the same count —
// the empirical check behind the fixed-record-size guarantee.
func probeRecordsPerPage(cat *catalog.Catalog, class string, mk func(i int) object.Value) (int, error) {
	// grewAt[k] is the insert count after which the extent first held k
	// pages: page 1 holds grewAt[2]-1 records, page 2 holds
	// grewAt[3]-grewAt[2], page 3 holds grewAt[4]-grewAt[3].
	grewAt := map[int]int{}
	for inserted := 1; inserted <= 8192; inserted++ {
		if _, err := cat.CreateObject(class, mk(inserted)); err != nil {
			return 0, err
		}
		pages, err := cat.ExtentPages(class)
		if err != nil {
			return 0, err
		}
		if _, seen := grewAt[pages]; !seen {
			grewAt[pages] = inserted
		}
		if pages >= 4 {
			break
		}
	}
	if grewAt[4] == 0 {
		return 0, fmt.Errorf("probe %s: extent never reached four pages", class)
	}
	first, second, third := grewAt[2]-1, grewAt[3]-grewAt[2], grewAt[4]-grewAt[3]
	if first != second || second != third {
		return 0, fmt.Errorf("probe %s: page densities vary (%d, %d, %d): records are not fixed-size",
			class, first, second, third)
	}
	return third, nil
}

// shardRecordDensities measures the bench classes' records-per-page on a
// throwaway single-shard kernel.
func shardRecordDensities() (itemsPerPage, ownersPerPage int, err error) {
	db, err := kernel.Open(shardBenchOptions(1))
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	if err := defineShardBenchSchema(db.Cat); err != nil {
		return 0, 0, err
	}
	// Probe owners on the fresh extent first, then mint one more owner to
	// anchor the item records' reference field.
	if ownersPerPage, err = probeRecordsPerPage(db.Cat, "BenchOwner", shardOwnerTuple); err != nil {
		return 0, 0, err
	}
	owner, err := db.Cat.CreateObject("BenchOwner", shardOwnerTuple(0))
	if err != nil {
		return 0, 0, err
	}
	if itemsPerPage, err = probeRecordsPerPage(db.Cat, "BenchItem", func(i int) object.Value {
		return shardItemTuple(i, owner)
	}); err != nil {
		return 0, 0, err
	}
	return itemsPerPage, ownersPerPage, nil
}

// buildShardBenchDB opens a kernel at the given shard count and loads the
// bench extents: owners first, then items referencing owner i%owners.
func buildShardBenchDB(nshards, items, owners int) (*kernel.DB, error) {
	db, err := kernel.Open(shardBenchOptions(nshards))
	if err != nil {
		return nil, err
	}
	if err := defineShardBenchSchema(db.Cat); err != nil {
		db.Close()
		return nil, err
	}
	ownerOIDs := make([]storage.OID, owners)
	for i := range ownerOIDs {
		if ownerOIDs[i], err = db.Cat.CreateObject("BenchOwner", shardOwnerTuple(i)); err != nil {
			db.Close()
			return nil, err
		}
	}
	for i := 0; i < items; i++ {
		if _, err := db.Cat.CreateObject("BenchItem", shardItemTuple(i, ownerOIDs[i%owners])); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// measureShardQuery executes one exchange-wrapped plan against a freshly
// built kernel at the given shard count. Open performs the serial setup
// (morsel discovery, join builds); every shard's pool is then evicted and
// its counters reset with latency enabled, so the measured Next loop covers
// exactly the parallel phase and its page reads are first touches.
func measureShardQuery(name string, nshards, items, owners int, latency time.Duration, plan func() optimizer.Plan) (ShardQueryEntry, error) {
	return measureShardQueryWorkers(name, nshards, shardBenchWorkers, items, owners, latency, plan)
}

// measureShardQueryWorkers is measureShardQuery at an explicit exchange
// degree.
func measureShardQueryWorkers(name string, nshards, workers, items, owners int, latency time.Duration, plan func() optimizer.Plan) (ShardQueryEntry, error) {
	var e ShardQueryEntry
	db, err := buildShardBenchDB(nshards, items, owners)
	if err != nil {
		return e, err
	}
	defer db.Close()

	ex := exec.New(algebra.New(db.Cat))
	op, err := ex.Compile(&optimizer.ExchangePlan{Input: plan(), Workers: workers})
	if err != nil {
		return e, err
	}
	if err := op.Open(); err != nil {
		return e, err
	}
	for _, sh := range db.Shards {
		if err := sh.Pool.EvictAll(); err != nil {
			op.Close()
			return e, err
		}
		sh.Disk.ResetStats()
		sh.Disk.SetLatency(latency)
	}
	defer func() {
		for _, sh := range db.Shards {
			sh.Disk.SetLatency(0)
		}
	}()

	rows := 0
	start := time.Now()
	for {
		_, ok, err := op.Next()
		if err != nil {
			op.Close()
			return e, err
		}
		if !ok {
			break
		}
		rows++
	}
	wall := time.Since(start)
	if err := op.Close(); err != nil {
		return e, err
	}

	var reads int64
	var simMs float64
	for _, sh := range db.Shards {
		s := sh.Disk.Stats()
		reads += s.Reads()
		simMs += s.TimeMs
	}
	e = ShardQueryEntry{
		Name:        name,
		Shards:      nshards,
		Rows:        rows,
		Reads:       reads,
		SimulatedMs: simMs,
		WallMs:      round3(float64(wall) / float64(time.Millisecond)),
	}
	if wall > 0 {
		e.RowsPerWallSec = round3(float64(rows) / wall.Seconds())
	}
	return e, nil
}

// measureShardCommits runs the insert+update commit workload at one shard
// count: shardCommitWorkers goroutines each commit shardCommitTxs
// transactions, every transaction creating one object and updating that
// same object — single-shard affinity, so each commit forces exactly one
// WAL. With a per-force sync delay, one log serializes every force in the
// machine; N logs overlap N of them.
func measureShardCommits(nshards int, syncDelay time.Duration) (ShardCommitEntry, error) {
	db, err := kernel.Open(shardBenchOptions(nshards))
	if err != nil {
		return ShardCommitEntry{}, err
	}
	defer db.Close()
	if err := defineShardBenchSchema(db.Cat); err != nil {
		return ShardCommitEntry{}, err
	}
	for _, sh := range db.Shards {
		sh.Log.SetSyncDelay(syncDelay)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, shardCommitWorkers)
	for w := 0; w < shardCommitWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < shardCommitTxs; i++ {
				tx := db.Begin()
				oid, err := tx.Create("BenchOwner", shardOwnerTuple(w*shardCommitTxs+i))
				if err != nil {
					errs <- err
					return
				}
				v := shardOwnerTuple(w * shardCommitTxs * 2)
				if err := tx.Update(oid, v); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return ShardCommitEntry{}, err
	}
	wall := time.Since(start)

	txns := shardCommitWorkers * shardCommitTxs
	e := ShardCommitEntry{
		Shards:  nshards,
		Workers: shardCommitWorkers,
		Txns:    txns,
		WallMs:  round3(float64(wall) / float64(time.Millisecond)),
	}
	if wall > 0 {
		e.CommitsPerSec = round3(float64(txns) / wall.Seconds())
	}
	return e, nil
}

// shardBenches are the query workloads MeasureShard sweeps.
var shardBenches = []struct {
	name string
	plan func() optimizer.Plan
}{
	// Full extent scan: page-range morsels interleaved across parts.
	{"shard-scan-BenchItem", func() optimizer.Plan {
		return &optimizer.BindPlan{Class: "BenchItem", Var: "b"}
	}},
	// Hash-partition join probe: the build drains run serially inside
	// Open and are excluded; the measured phase is the probe's object
	// fetches fanning out across the owner extent's shards.
	{"shard-hash-join-probe", func() optimizer.Plan {
		return &optimizer.JoinPlan{
			Left:      &optimizer.BindPlan{Class: "BenchItem", Var: "b"},
			Right:     &optimizer.BindPlan{Class: "BenchOwner", Var: "o"},
			Method:    cost.HashPartition,
			LeftVar:   "b",
			Attribute: "owner",
			RightVar:  "o",
		}
	}},
}

// MeasureShard runs the sharded-store sweep: a full BenchItem extent scan
// and a hash-partition join probe at shards=1/2/4 (read totals must match
// across shard counts), then the insert+update commit-throughput workload
// at the same shard counts. Pass latency <= 0 for DefaultParallelLatency
// and syncDelay <= 0 for DefaultShardSyncDelay.
func MeasureShard(latency, syncDelay time.Duration) (*BenchShard, error) {
	if latency <= 0 {
		latency = DefaultParallelLatency
	}
	if syncDelay <= 0 {
		syncDelay = DefaultShardSyncDelay
	}
	itemsPerPage, ownersPerPage, err := shardRecordDensities()
	if err != nil {
		return nil, err
	}
	// Multiples of 4*recordsPerPage fill every part to exact page
	// boundaries at every measured shard count.
	items := 6000 / (4 * itemsPerPage) * (4 * itemsPerPage)
	if items == 0 {
		items = 4 * itemsPerPage
	}
	owners := 3000 / (4 * ownersPerPage) * (4 * ownersPerPage)
	if owners == 0 {
		owners = 4 * ownersPerPage
	}

	out := &BenchShard{
		Items:             items,
		Owners:            owners,
		ItemsPerPage:      itemsPerPage,
		OwnersPerPage:     ownersPerPage,
		LatencyUsPerSimMs: float64(latency) / float64(time.Microsecond),
		SyncDelayMs:       float64(syncDelay) / float64(time.Millisecond),
	}

	for _, b := range shardBenches {
		var base ShardQueryEntry
		for _, n := range ShardCounts {
			e, err := measureShardQuery(b.name, n, items, owners, latency, b.plan)
			if err != nil {
				return nil, fmt.Errorf("%s shards=%d: %w", b.name, n, err)
			}
			if n == ShardCounts[0] {
				base = e
			} else {
				if e.Rows != base.Rows {
					return nil, fmt.Errorf("%s: shards=%d returned %d rows, shards=%d returned %d",
						b.name, n, e.Rows, base.Shards, base.Rows)
				}
				if e.Reads != base.Reads {
					return nil, fmt.Errorf("%s: shards=%d cost %d reads, shards=%d cost %d — sharding changed what is read",
						b.name, n, e.Reads, base.Shards, base.Reads)
				}
			}
			if base.RowsPerWallSec > 0 {
				e.Speedup = round3(e.RowsPerWallSec / base.RowsPerWallSec)
			}
			out.Queries = append(out.Queries, e)
		}
	}

	var commitBase float64
	for _, n := range ShardCounts {
		e, err := measureShardCommits(n, syncDelay)
		if err != nil {
			return nil, fmt.Errorf("commit shards=%d: %w", n, err)
		}
		if n == ShardCounts[0] {
			commitBase = e.CommitsPerSec
		}
		if commitBase > 0 {
			e.Speedup = round3(e.CommitsPerSec / commitBase)
		}
		if n == 4 {
			out.CommitSpeedupN4 = e.Speedup
		}
		out.Commits = append(out.Commits, e)
	}
	return out, nil
}

// ShardScaling prints the MeasureShard sweep as tables. The env parameter
// is unused (the sweep builds its own kernels at each shard count) but kept
// for the artifact signature.
func ShardScaling(w io.Writer, _ *Env) error {
	section(w, "Sharded-store scaling. Independent stores and WALs, shards=1/2/4")
	res, err := MeasureShard(0, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "extents: %d items (%d/page), %d owners (%d/page); latency replay %.0f us/sim-ms; fsync delay %.1f ms\n\n",
		res.Items, res.ItemsPerPage, res.Owners, res.OwnersPerPage, res.LatencyUsPerSimMs, res.SyncDelayMs)
	fmt.Fprintf(w, "%-24s %7s %7s %7s %10s %10s %14s %8s\n",
		"benchmark", "shards", "rows", "reads", "sim ms", "wall ms", "rows/wall-s", "speedup")
	for _, e := range res.Queries {
		fmt.Fprintf(w, "%-24s %7d %7d %7d %10.2f %10.2f %14.0f %7.2fx\n",
			e.Name, e.Shards, e.Rows, e.Reads, e.SimulatedMs, e.WallMs, e.RowsPerWallSec, e.Speedup)
	}
	fmt.Fprintf(w, "\n%-24s %7s %7s %10s %14s %8s\n",
		"commit workload", "shards", "txns", "wall ms", "commits/s", "speedup")
	for _, e := range res.Commits {
		fmt.Fprintf(w, "%-24s %7d %7d %10.2f %14.0f %7.2fx\n",
			"insert+update", e.Shards, e.Txns, e.WallMs, e.CommitsPerSec, e.Speedup)
	}
	return nil
}
