// Package kernel is the MOOD kernel façade (Figure 2.1): it assembles the
// storage manager, WAL, lock manager, catalog, Function Manager, algebra,
// optimizer and executor into one database object; interprets MOODSQL
// statements (DDL, object creation, queries, updates); maintains the
// statistics base; and exposes the cursor protocol MoodView uses
// (Section 9.4).
//
// As the paper describes, kernel functions are divided between the SQL
// interpreter (this package and its dependents) and externally compiled
// member functions dispatched through the Function Manager with late
// binding.
package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/cluster"
	"mood/internal/cost"
	"mood/internal/exec"
	"mood/internal/expr"
	"mood/internal/funcmgr"
	"mood/internal/joinindex"
	"mood/internal/lock"
	"mood/internal/objcache"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/sql"
	"mood/internal/stats"
	"mood/internal/storage"
	"mood/internal/wal"
)

// Shard bundles one shard's independent storage stack: its own simulated
// disk, buffer pool, write-ahead log, file directory and object store. A
// single-store database has exactly one; a sharded database has
// Options.ShardCount of them, sharing nothing below the catalog.
type Shard struct {
	Disk  *storage.DiskSim
	Pool  *storage.BufferPool
	Log   *wal.Log
	FM    *storage.FileManager
	Store *storage.ObjectStore

	prefetcher *storage.Prefetcher // nil when readahead is off
}

// DB is one open MOOD database.
type DB struct {
	// Disk, Pool and Log alias shard 0's stack — the full picture for a
	// single-store database, and the home of index pages and the system
	// directory for a sharded one. Per-shard stacks live in Shards.
	Disk  *storage.DiskSim
	Pool  *storage.BufferPool
	Log   *wal.Log
	Locks *lock.Manager
	Cat   *catalog.Catalog
	Funcs *funcmgr.Manager
	Alg   *algebra.Algebra
	Exec  *exec.Executor

	// Store is the storage interface the catalog runs over: the single
	// ObjectStore, or the ShardedStore routing across Shards.
	Store storage.Store
	// Shards holds every shard's independent stack (length 1 unsharded).
	Shards []*Shard

	// statsBase keeps the Table 8 statistics per class and re-collects only
	// the classes writes have touched since; stats is its last assembly with
	// the kernel's cost knobs applied. statsMu guards both.
	statsBase *stats.Base
	stats     *cost.Stats
	statsMu   sync.Mutex

	// bjis is the registry of maintained binary join indices. bjiMu guards
	// it (the mutation observer walks it on every object write); bjiLogMu
	// serializes index maintenance, so bjiTx — the WAL micro-transaction the
	// attached page loggers append under — is single-writer state.
	bjis     map[string]*joinindex.BinaryJoinIndex
	bjiMu    sync.RWMutex
	bjiLogMu sync.Mutex
	bjiTx    wal.TxID

	ocache *objcache.Cache // nil when the object cache is off

	// tracer collects reference-traversal statistics for the clustering
	// subsystem; nil when tracing is off. reorgMu serializes Reorganize.
	tracer  *cluster.Tracer
	reorgMu sync.Mutex
	// moveMu keeps record migration apart from extent scans while
	// clustering is on: each migration batch and compaction pass holds it
	// exclusively; each plan execution, UPDATE/DELETE target scan and
	// statistics re-collection holds it shared. A scan spanning a move would
	// meet the record both on its old page and, relocated, on the new page
	// appended behind it.
	moveMu sync.RWMutex

	// txSeq mints lock-manager transaction ids: no single WAL owns the id
	// space, since a transaction begins on each shard's log it touches.
	txSeq atomic.Uint64

	// vs is the copy-on-write version overlay backing MVCC snapshot reads.
	vs *versionStore

	// plans caches optimized plans per normalized statement shape; nil when
	// the plan cache is off.
	plans *planCache

	// parallelism is the intra-query degree of parallelism; parallelMinPages
	// gates it on estimated page footprint (zero means the optimizer's
	// default threshold; negative disables the threshold).
	parallelism      int
	parallelMinPages float64

	// ForceJoin pins every join's physical method when non-nil (the
	// differential wall and the moodbench sweep drive it); applicability
	// still gates the override, so an inapplicable force keeps the
	// cost-based choice. Set only on a quiesced session.
	ForceJoin *cost.JoinMethod

	// LastPlan and LastExplain describe the most recent SELECT, for the
	// moodsql shell's EXPLAIN support and for the experiment harness.
	// lastMu guards the writes so concurrent sessions don't race; readers
	// are expected to inspect them from a quiesced session.
	lastMu      sync.Mutex
	LastPlan    optimizer.Plan
	LastExplain *optimizer.Explain
	// LastAnalyze holds the most recent EXPLAIN ANALYZE's per-operator
	// instrumentation (rows, simulated page reads, wall time).
	LastAnalyze *exec.Analysis
}

// Options configures Open.
type Options struct {
	DiskParams   storage.DiskParams
	BufferFrames int
	// Parallelism is the intra-query degree of parallelism: when > 1 the
	// optimizer wraps exchangeable operators (extent scans, index
	// selections, hash-join probes) in Exchange nodes executed by that many
	// worker goroutines. Zero or one keeps every plan serial.
	Parallelism int
	// ObjectCacheBytes is the decoded-object cache budget; zero disables the
	// cache. Cached values skip both the page fetch and the decode on re-
	// dereference and are invalidated by Update/Delete and WAL recovery.
	ObjectCacheBytes int64
	// PrefetchWorkers sizes the buffer-pool readahead pool; zero disables
	// readahead. Scans and batched dereferences then overlap upcoming page
	// loads with decode work. On a sharded database each shard gets its own
	// readahead pool of this size.
	PrefetchWorkers int
	// ShardCount partitions class extents across that many independent
	// object stores, each with its own disk, buffer pool, file directory
	// and WAL (storage.MaxShards at most). Inserts rotate round-robin;
	// reads route by the shard id carried in every OID. Zero or one keeps
	// the single monolithic store. BufferFrames is the PER-SHARD pool size.
	ShardCount int
	// ClusterSampleEvery enables the clustering tracer, recording every
	// N-th traversal observation (1 records all of them; zero disables
	// clustering entirely). The tracer hooks the catalog's batched
	// dereference and the stores' batch fetches; EXPLAIN ANALYZE then
	// renders clustered= counters, and DB.Reorganize applies the learned
	// placements.
	ClusterSampleEvery int
	// GroupCommit batches concurrent commit forces on every shard's WAL:
	// one leader per commit window pays the (simulated) fsync for the whole
	// batch, so N sessions no longer serialize N forces behind one device.
	GroupCommit bool
	// PlanCache caches optimized SELECT plans per normalized statement
	// shape (constants parameterized away), so the hot path of a repeated
	// shape skips parse and optimize entirely. Cached plans keep their
	// first binding's cost estimates and survive data mutations; DDL, index
	// builds and RefreshStats invalidate them.
	PlanCache bool
}

// DefaultOptions returns a laptop-friendly configuration.
func DefaultOptions() Options {
	return Options{DiskParams: storage.DefaultDiskParams(), BufferFrames: 4096}
}

// Open creates a fresh in-memory MOOD database.
func Open(opts Options) (*DB, error) {
	if opts.BufferFrames <= 0 {
		opts.BufferFrames = 4096
	}
	nshards := opts.ShardCount
	if nshards <= 0 {
		nshards = 1
	}
	if nshards > storage.MaxShards {
		return nil, fmt.Errorf("kernel: ShardCount %d exceeds the OID shard field's maximum %d", nshards, storage.MaxShards)
	}
	// Build one complete stack per shard: nothing below the catalog is
	// shared, so writers on different shards contend on no lock and no
	// fsync stream.
	shards := make([]*Shard, nshards)
	stores := make([]*storage.ObjectStore, nshards)
	for i := 0; i < nshards; i++ {
		disk := storage.NewDiskSim(opts.DiskParams)
		pool := storage.NewBufferPool(disk, opts.BufferFrames)
		log := wal.NewLog()
		log.SetGroupCommit(opts.GroupCommit)
		pool.SetFlushHook(log.FlushHook())
		fm, err := storage.NewFileManager(pool)
		if err != nil {
			return nil, err
		}
		st := storage.NewShardObjectStore(pool, fm, i)
		shards[i] = &Shard{Disk: disk, Pool: pool, Log: log, FM: fm, Store: st}
		stores[i] = st
	}
	var store storage.Store
	if nshards == 1 {
		store = stores[0]
	} else {
		store = storage.NewShardedStore(stores)
	}
	cat, err := catalog.New(store)
	if err != nil {
		return nil, err
	}
	locks := lock.NewManager(0)
	funcs := funcmgr.New(cat, locks)
	alg := algebra.New(cat)
	db := &DB{
		Disk: shards[0].Disk, Pool: shards[0].Pool, Log: shards[0].Log,
		Locks: locks,
		Cat:   cat, Funcs: funcs, Alg: alg,
		Exec:   exec.New(alg),
		Store:  store,
		Shards: shards,
		bjis:   map[string]*joinindex.BinaryJoinIndex{},
		vs:     newVersionStore(),

		parallelism: opts.Parallelism,
	}
	db.statsBase = stats.NewBase(cat, db.costDisk())
	if opts.PlanCache {
		db.plans = newPlanCache()
	}
	// Every object create/update/delete — autocommit DML and transactional
	// DML alike — routes through the catalog, so one observer keeps every
	// maintained join index in step with the extents (transaction aborts
	// re-fire it with the logical undo's reversed values).
	cat.SetMutationObserver(db.maintainBJIs)
	// The statistics base keeps the entries of written classes by deltas
	// from the same calls.
	cat.SetStatsObserver(db.statsBase.Apply)
	// Late-bound method dispatch for predicates and projections.
	alg.Invoke = db.invoke
	// Share the Function Manager's query registry so compiled predicate
	// closures are resolved through the same late-binding manager as
	// methods, and survive across statements of one session.
	db.Exec.Funcs = funcs.Queries()
	// EXPLAIN ANALYZE attributes simulated page reads per operator; the
	// executor has no direct disk access, so give it the read counters.
	// Totals sum every shard's DiskSim delta; the per-shard vector feeds
	// the "shard pages" annotation.
	db.Exec.Pages = store.ReadCount
	db.Exec.ShardPages = store.ShardReads
	if opts.ObjectCacheBytes > 0 {
		db.ocache = objcache.New(opts.ObjectCacheBytes)
		cat.SetObjectCache(db.ocache)
		// Writers bump the cache epoch while still holding the owning
		// store's exclusive lock, so in-flight fetches of the old bytes
		// never land. OIDs carry their shard tag, so one cache serves all
		// shards without aliasing.
		store.SetInvalidator(db.ocache)
		db.Exec.CacheHits = db.ocache.Hits
		db.Exec.CacheMisses = db.ocache.Misses
	}
	if opts.ClusterSampleEvery > 0 {
		db.tracer = cluster.New(opts.ClusterSampleEvery)
		db.tracer.Enable(true)
		// Traversal order flows in from the catalog's batched dereference;
		// measured page co-residency from the stores' batch fetches.
		cat.SetAccessObserver(db.tracer.ObserveAccess)
		store.SetBatchObserver(db.tracer.ObserveBatch)
		db.Exec.ClusterRefs = db.tracer.BatchRefs
		db.Exec.ClusterPages = db.tracer.BatchPages
	}
	if opts.PrefetchWorkers > 0 {
		for _, sh := range db.Shards {
			sh.prefetcher = storage.NewPrefetcher(sh.Pool, opts.PrefetchWorkers)
			sh.Store.SetPrefetcher(sh.prefetcher)
		}
		db.Exec.Prefetched = func() int64 {
			var n int64
			for _, sh := range db.Shards {
				n += sh.prefetcher.Loaded()
			}
			return n
		}
		db.Exec.Quiesce = func() {
			for _, sh := range db.Shards {
				sh.prefetcher.Quiesce()
			}
		}
	}
	return db, nil
}

// Close releases background resources (the readahead workers). The
// database object itself is in-memory and needs no further teardown; Close
// is safe to call on a database opened without readahead.
func (db *DB) Close() {
	for _, sh := range db.Shards {
		if sh.prefetcher != nil {
			sh.prefetcher.Close()
		}
	}
}

// Recover replays every shard's WAL against its own buffer pool
// (ARIES-style redo/undo, one independent pass per shard — the logs share
// no LSN space and touch disjoint disks) and drops every cached decoded
// object and the statistics base: recovery rewrites pages underneath both,
// so their contents are no longer trustworthy. The returned stats aggregate
// all shards.
func (db *DB) Recover() (wal.RecoveryStats, error) {
	var total wal.RecoveryStats
	// Recovery rewrites object state underneath the snapshot overlay; its
	// retained pre-images (and any open snapshots) no longer describe
	// anything real.
	db.vs.Reset()
	// Undo of loser transactions moves no class's mutation counter.
	defer db.invalidateStats()
	for _, sh := range db.Shards {
		st, err := sh.Log.Recover(sh.Pool)
		total.Analyzed += st.Analyzed
		total.Redone += st.Redone
		total.Undone += st.Undone
		total.Losers += st.Losers
		if err != nil {
			if db.ocache != nil {
				db.ocache.Reset()
			}
			return total, err
		}
	}
	if db.ocache != nil {
		db.ocache.Reset()
	}
	return total, nil
}

// Checkpoint flushes every shard's dirty pages and takes a truncating
// checkpoint on its WAL, reclaiming the log records the flushes made
// redundant. Long-running sessions call it periodically to bound log
// memory.
func (db *DB) Checkpoint() error {
	for _, sh := range db.Shards {
		if err := sh.Pool.FlushAll(); err != nil {
			return err
		}
		sh.Log.CheckpointTruncate()
	}
	return nil
}

// ObjectCache returns the decoded-object cache, nil when disabled.
func (db *DB) ObjectCache() *objcache.Cache { return db.ocache }

// invoke dispatches a method call from the expression interpreter through
// the Function Manager with late binding: the receiver's run-time class
// determines the implementation.
func (db *DB) invoke(self object.Value, selfOID storage.OID, method string, args []object.Value) (object.Value, error) {
	class := ""
	if !selfOID.IsNil() {
		if _, c, err := db.Cat.GetObject(selfOID); err == nil {
			class = c
		}
	}
	if class == "" {
		return object.Null, fmt.Errorf("kernel: cannot determine receiver class for %s()", method)
	}
	return db.Funcs.Invoke(class, method, &funcmgr.Invocation{
		Self: self, SelfOID: selfOID, Args: args,
		Resolve: db.Cat.Resolver(),
	})
}

// RegisterMethod attaches a Go body to a declared method through the
// Function Manager (the substitute for compiling C++ source into the
// class's shared object).
func (db *DB) RegisterMethod(class, name string, body funcmgr.Body) error {
	sig, err := db.Cat.Method(class, name)
	if err != nil {
		return err
	}
	return db.Funcs.Register(sig, body)
}

// costDisk returns the cost model's view of the simulated disk.
func (db *DB) costDisk() cost.Disk {
	p := db.Disk.Params()
	return cost.Disk{B: p.BlockSize, BTT: p.BTT, EBT: p.EBT, R: p.R, S: p.S}
}

// RefreshStats re-collects the Table 8 statistics base from every extent;
// the optimizer uses it for every subsequent query. Cached plans carry old
// estimates, so the plan cache is invalidated alongside.
func (db *DB) RefreshStats() error {
	db.invalidatePlans()
	db.invalidateStats()
	_, err := db.Stats()
	return err
}

// invalidateStats drops the whole statistics base, so the next Stats scans
// every extent. Only events that change what the extents hold without
// moving a class's mutation counter need it: reorganization (pages move
// under every class) and recovery. Class definitions and drops are seen by
// the base itself through the catalog's schema version.
func (db *DB) invalidateStats() {
	db.statsMu.Lock()
	db.statsBase.Reset()
	db.stats = nil
	db.statsMu.Unlock()
}

// Stats returns the current statistics base. While no class has been
// mutated since the last call it returns the same base without a lock on
// the catalog or an allocation; otherwise it assembles a fresh base from
// the per-class entries, which writes keep by deltas once their class has
// been written (stats.Base). Only the first write a counts-only entry's
// closure sees makes it re-scan that closure.
func (db *DB) Stats() (*cost.Stats, error) {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	if db.stats != nil && !db.statsBase.Stale() {
		return db.stats, nil
	}
	db.holdMoves()
	st, err := db.statsBase.Collect()
	db.releaseMoves()
	if err != nil {
		return nil, err
	}
	db.applyCostKnobs(st)
	db.stats = st
	return st, nil
}

// applyCostKnobs sets the cost-model inputs that describe the kernel rather
// than the extents on a freshly assembled base.
func (db *DB) applyCostKnobs(st *cost.Stats) {
	// The kernel's executor implements the fusion join, so BestJoin may
	// price it as a fifth candidate; the knob defaults off in the cost
	// package so the paper's four-way choice set stays byte-exact there.
	st.Fusion = true
	if db.ocache != nil {
		// Feed the observed hit rate and the batched-dereference model into
		// the cost formulas; with the cache off the zero-valued knobs keep
		// the paper's formulas byte-exact.
		st.CacheHitRate = db.ocache.HitRate()
		st.BatchFetch = true
	}
	if db.tracer != nil {
		// Learn each class's clustering factor from the measured page
		// co-residency of batched fetches; classes without enough observed
		// traffic keep the factor at zero (formulas byte-exact).
		fs := db.tracer.FileStats()
		obs := make([]stats.ClusterObs, len(fs))
		for i, f := range fs {
			obs[i] = stats.ClusterObs{Shard: f.Shard, File: f.File, Runs: f.Runs, Refs: f.Refs, Pages: f.Pages}
		}
		stats.ApplyClusterFactors(st, db.Cat, obs)
	}
}

// BuildBJI materializes a binary join index on class.attribute and
// registers it with the optimizer and executor. From then on the index is
// maintained: every mutation of an object in the class's IS-A closure
// routes through maintainBJIs, with the btree page mutations page-image
// logged under a WAL micro-transaction.
func (db *DB) BuildBJI(name, class, attribute string) (*joinindex.BinaryJoinIndex, error) {
	ix, err := joinindex.BuildBJI(db.Cat, class, attribute)
	if err != nil {
		return nil, err
	}
	ix.SetLogger(db.bjiPageLogger())
	db.bjiMu.Lock()
	db.bjis[name] = ix
	db.Exec.BJIs[name] = ix
	db.bjiMu.Unlock()
	db.invalidatePlans()
	return ix, nil
}

// bjiPageLogger curries shard 0's WAL (index pages live in shard 0's pool)
// into the btree page-logger shape. The transaction id is read from bjiTx,
// which maintainBJIs sets while holding bjiLogMu — loggers only fire inside
// that critical section.
func (db *DB) bjiPageLogger() storage.PageLogger {
	return func(pid storage.PageID, off int, before, after []byte) (uint32, error) {
		lsn, err := db.Shards[0].Log.Update(db.bjiTx, pid, off, before, after)
		return uint32(lsn), err
	}
}

// maintainBJIs is the catalog's mutation observer: each binary join index
// whose indexed closure contains the mutated class and whose attribute the
// mutation changes applies the delta inside one WAL micro-transaction on
// shard 0's log. A mutation that changes no indexed reference begins no
// micro-transaction and forces nothing. The object cache needs no extra
// work here — the store already epoch-invalidated the OID while holding its
// exclusive lock. A failed maintenance aborts the micro-transaction
// (restoring the touched index pages from their logged before-images) and
// drops the affected indices rather than leave them out of step with the
// extent; the mutating statement then fails after the fact, like
// attribute-index partial failures.
func (db *DB) maintainBJIs(op byte, class string, oid storage.OID, old, new object.Value) error {
	type delta struct {
		name     string
		ix       *joinindex.BinaryJoinIndex
		old, new object.Value
	}
	var deltas []delta
	db.bjiMu.RLock()
	for name, ix := range db.bjis {
		if !db.Cat.IsA(class, ix.Class) {
			continue
		}
		oldA, _ := old.Field(ix.Attribute) // zero (null) on create
		newA, _ := new.Field(ix.Attribute) // zero (null) on delete
		if !joinindex.Unchanged(oldA, newA) {
			deltas = append(deltas, delta{name, ix, oldA, newA})
		}
	}
	db.bjiMu.RUnlock()
	if len(deltas) == 0 {
		return nil
	}
	db.bjiLogMu.Lock()
	defer db.bjiLogMu.Unlock()
	sh := db.Shards[0]
	db.bjiTx = sh.Log.Begin()
	for _, d := range deltas {
		if err := d.ix.Maintain(oid, d.old, d.new); err != nil {
			aerr := sh.Log.Abort(db.bjiTx, func(page storage.PageID, off int, image []byte, lsn wal.LSN) error {
				pg, ferr := sh.Pool.Fetch(page)
				if ferr != nil {
					return ferr
				}
				copy(pg.Bytes()[off:], image)
				pg.SetLSN(uint32(lsn))
				return sh.Pool.Unpin(page, true)
			})
			db.bjiMu.Lock()
			for _, d := range deltas {
				delete(db.bjis, d.name)
				delete(db.Exec.BJIs, d.name)
			}
			db.bjiMu.Unlock()
			db.invalidatePlans()
			if aerr != nil {
				return fmt.Errorf("kernel: join index maintenance: %v (abort: %w)", err, aerr)
			}
			return fmt.Errorf("kernel: join index maintenance: %w", err)
		}
	}
	return sh.Log.Commit(db.bjiTx)
}

// Result re-exports the executor's result type.
type Result = exec.Result

// Execute interprets one MOODSQL statement. SELECTs return a Result; DDL
// and DML return a Result describing the outcome.
func (db *DB) Execute(statement string) (*Result, error) {
	if db.plans != nil {
		if res, handled, err := db.executeCached(statement); handled {
			return res, err
		}
	}
	st, err := sql.Parse(statement)
	if err != nil {
		return nil, err
	}
	return db.ExecuteStmt(st)
}

// ExecuteScript runs a semicolon-separated list of statements, returning
// the last result.
func (db *DB) ExecuteScript(script string) (*Result, error) {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		if last, err = db.ExecuteStmt(st); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecuteStmt interprets one parsed statement.
func (db *DB) ExecuteStmt(st sql.Statement) (*Result, error) {
	switch n := st.(type) {
	case *sql.CreateClass:
		return db.execCreateClass(n)
	case *sql.CreateIndex:
		return db.execCreateIndex(n)
	case *sql.CreateJoinIndex:
		if _, err := db.BuildBJI(n.Name, n.Class, n.Attr); err != nil {
			return nil, err
		}
		return message("join index %s created on %s(%s)", n.Name, n.Class, n.Attr), nil
	case *sql.DropClass:
		if err := db.Cat.DropClass(n.Name); err != nil {
			return nil, err
		}
		db.invalidatePlans()
		return message("class %s dropped", n.Name), nil
	case *sql.DropIndex:
		if err := db.Cat.DropIndex(n.Name); err != nil {
			return nil, err
		}
		db.invalidatePlans()
		return message("index %s dropped", n.Name), nil
	case *sql.NewObject, *sql.Update, *sql.Delete:
		return db.autocommit(st)
	case *sql.Select:
		return db.execSelect(n)
	case *sql.Explain:
		return db.execExplain(n)
	}
	return nil, fmt.Errorf("kernel: unsupported statement %T", st)
}

func message(format string, args ...interface{}) *Result {
	return &Result{
		Columns: []string{"result"},
		Rows:    [][]object.Value{{object.NewString(fmt.Sprintf(format, args...))}},
	}
}

func (db *DB) execCreateClass(n *sql.CreateClass) (*Result, error) {
	fields := make([]object.Field, len(n.Fields))
	for i, f := range n.Fields {
		fields[i] = object.Field{Name: f.Name, Type: f.Type}
	}
	tuple := object.TupleOf(fields...)
	var methods []*catalog.MethodSig
	for _, m := range n.Methods {
		methods = append(methods, &catalog.MethodSig{
			Name:       m.Name,
			ParamNames: m.ParamNames,
			ParamTypes: m.ParamTypes,
			ReturnType: m.Return,
		})
	}
	var err error
	if n.IsType {
		_, err = db.Cat.DefineType(n.Name, tuple)
	} else {
		_, err = db.Cat.DefineClass(n.Name, tuple, n.Supers, methods)
	}
	if err != nil {
		return nil, err
	}
	db.invalidatePlans()
	kind := "class"
	if n.IsType {
		kind = "type"
	}
	return message("%s %s created", kind, n.Name), nil
}

func (db *DB) execCreateIndex(n *sql.CreateIndex) (*Result, error) {
	kind := catalog.BTreeIndex
	if n.Hash {
		kind = catalog.HashIndex
	}
	if _, err := db.Cat.CreateIndex(n.Name, n.Class, n.Attr, kind, n.Unique); err != nil {
		return nil, err
	}
	db.invalidatePlans()
	return message("index %s created on %s(%s)", n.Name, n.Class, n.Attr), nil
}

// evalNewObject builds the tuple of a "new Class <v1, v2, ...>" statement:
// values are assigned positionally to the class's full (inherited-first)
// attribute list and cast to the attribute types at run time.
func (db *DB) evalNewObject(n *sql.NewObject) (object.Value, error) {
	attrs, err := db.Cat.AllAttributes(n.Class)
	if err != nil {
		return object.Null, err
	}
	if len(n.Values) > len(attrs) {
		return object.Null, fmt.Errorf("kernel: new %s given %d values for %d attributes",
			n.Class, len(n.Values), len(attrs))
	}
	names := make([]string, 0, len(n.Values))
	fields := make([]object.Value, 0, len(n.Values))
	for i, ve := range n.Values {
		v, err := ve.Eval(&expr.Env{Resolve: db.Cat.Resolver()})
		if err != nil {
			return object.Null, err
		}
		cast, err := expr.Cast(v, attrs[i].Type)
		if err != nil {
			return object.Null, fmt.Errorf("kernel: attribute %s: %w", attrs[i].Name, err)
		}
		names = append(names, attrs[i].Name)
		fields = append(fields, cast)
	}
	return object.NewTuple(names, fields), nil
}

// optimize plans a SELECT and records it in LastPlan/LastExplain.
func (db *DB) optimize(n *sql.Select) (optimizer.Plan, error) {
	st, err := db.Stats()
	if err != nil {
		return nil, err
	}
	opt := optimizer.New(db.Cat, st)
	opt.Parallelism = db.parallelism
	opt.ParallelMinPages = db.parallelMinPages
	opt.ForceJoinMethod = db.ForceJoin
	db.bjiMu.RLock()
	for name, ix := range db.bjis {
		opt.RegisterBJI(ix.Class, ix.Attribute, name, ix.CostStats())
	}
	db.bjiMu.RUnlock()
	plan, explain, err := opt.Optimize(n)
	if err != nil {
		return nil, err
	}
	db.lastMu.Lock()
	db.LastPlan, db.LastExplain = plan, explain
	db.lastMu.Unlock()
	return plan, nil
}

func (db *DB) execSelect(n *sql.Select) (*Result, error) {
	plan, err := db.optimize(n)
	if err != nil {
		return nil, err
	}
	return db.execute(plan)
}

// execute runs a plan to completion, apart from record migration.
func (db *DB) execute(plan optimizer.Plan) (*Result, error) {
	db.holdMoves()
	defer db.releaseMoves()
	return db.Exec.ExecuteResult(plan)
}

// holdMoves and releaseMoves bracket a read that must not span a record
// migration (see moveMu); without clustering nothing migrates.
func (db *DB) holdMoves() {
	if db.tracer != nil {
		db.moveMu.RLock()
	}
}

func (db *DB) releaseMoves() {
	if db.tracer != nil {
		db.moveMu.RUnlock()
	}
}

// execExplain implements EXPLAIN [ANALYZE] <select>. Plain EXPLAIN renders
// the optimized access plan without running it; ANALYZE runs the query
// through the streaming pipeline and renders the plan tree annotated with
// per-operator rows in/out, simulated page reads, and wall time. The raw
// instrumentation is kept in LastAnalyze for programmatic access.
func (db *DB) execExplain(n *sql.Explain) (*Result, error) {
	plan, err := db.optimize(n.Query)
	if err != nil {
		return nil, err
	}
	if !n.Analyze {
		db.lastMu.Lock()
		db.LastAnalyze = nil
		db.lastMu.Unlock()
		return message("%s", optimizer.Render(plan)), nil
	}
	db.holdMoves()
	_, an, err := db.Exec.ExecuteAnalyzed(plan)
	db.releaseMoves()
	if err != nil {
		return nil, err
	}
	if db.plans != nil {
		hits, misses := db.plans.Stats()
		an.PlanCacheEnabled = true
		an.PlanCacheHits, an.PlanCacheMisses = hits, misses
	}
	db.lastMu.Lock()
	db.LastAnalyze = an
	db.lastMu.Unlock()
	return message("%s", an.Render()), nil
}

// matchTargets evaluates a FROM item + WHERE against the store, returning
// matching OIDs (shared by UPDATE and DELETE). The scan takes no locks: the
// caller re-checks each target with stillMatches on the value it reads under
// its X lock.
func (db *DB) matchTargets(fi sql.FromItem, where expr.Expr) ([]storage.OID, error) {
	var out []storage.OID
	check := func(oid storage.OID, v object.Value) bool {
		if db.matches(fi, where, oid, v) {
			out = append(out, oid)
		}
		return true
	}
	db.holdMoves()
	defer db.releaseMoves()
	var err error
	if fi.Every || len(fi.Minus) > 0 {
		err = db.Cat.ScanClosure(fi.Class, fi.Minus, check)
	} else {
		err = db.Cat.ScanExtent(fi.Class, check)
	}
	return out, err
}

// matches evaluates WHERE on one object; an evaluation error counts as no
// match.
func (db *DB) matches(fi sql.FromItem, where expr.Expr, oid storage.OID, v object.Value) bool {
	if where == nil {
		return true
	}
	env := &expr.Env{
		Vars:    map[string]object.Value{fi.Var: v},
		OIDs:    map[string]storage.OID{fi.Var: oid},
		Resolve: db.Cat.Resolver(),
		Invoke:  db.Alg.Invoke,
	}
	ok, err := expr.EvalBool(where, env)
	return err == nil && ok
}
