// Package objcache is the decoded-object cache that sits above the buffer
// pool in the fetch hierarchy: OID → decoded object.Value, so a hot
// reference traversal skips both the page fetch and the object.Unmarshal
// that the per-page buffer pool cannot avoid. The cost model prices every
// reference dereference as a random page access (Section 6.1's
// RNDCOST(k_c*fan)); a warm object cache removes the whole term for the hit
// fraction, which is where the ≥2x repeated-traversal speedup comes from.
//
// The cache is sharded (per-shard mutex) and byte-budgeted. Replacement is
// 2Q-lite: a first-touch entry lands in a probation FIFO and is promoted to
// a protected LRU only when re-referenced, so a single large scan cannot
// wash out the hot working set. Eviction drains probation before touching
// protected.
//
// Staleness is handled with per-shard epochs. A writer invalidates an OID
// under the shard lock and bumps the shard epoch; a reader captures the
// epoch with BeginFetch before reading the store and passes the token to
// Put, which rejects the insert if the epoch moved. The window where a
// reader holds pre-update bytes while the writer updates and invalidates
// can therefore never re-install a stale value.
package objcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"mood/internal/object"
	"mood/internal/storage"
)

// entryOverhead approximates the per-entry bookkeeping bytes (map slot, list
// element, entry struct) charged against the budget on top of the encoded
// object size, so budgets stay honest for small objects.
const entryOverhead = 96

// numShards is the fixed shard count (power of two). Sixteen matches the
// buffer pool's maximum shard count, so writer/reader contention on the
// cache never exceeds contention on the pool underneath it.
const numShards = 16

type entry struct {
	oid       storage.OID
	val       object.Value
	class     string
	size      int64
	protected bool
}

type shard struct {
	mu        sync.RWMutex
	epoch     uint64
	budget    int64
	bytes     int64
	table     map[storage.OID]*list.Element
	probation *list.List // first-touch entries, FIFO eviction order
	protected *list.List // re-referenced entries, LRU order
	evictions int64
	rejected  int64
}

// Cache is a sharded, byte-budgeted OID → decoded-value cache.
type Cache struct {
	shards [numShards]shard
	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
	budget int64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
	Rejected  int64 // puts dropped by the epoch check or the budget
	Bytes     int64
	Entries   int
	Budget    int64
}

// New creates a cache with the given total byte budget, split evenly across
// the shards. A non-positive budget yields a cache that stores nothing but
// still counts lookups, so callers need not special-case "cache off" paths
// they instrument.
func New(budgetBytes int64) *Cache {
	c := &Cache{budget: budgetBytes}
	per := budgetBytes / numShards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.budget = per
		sh.table = make(map[storage.OID]*list.Element)
		sh.probation = list.New()
		sh.protected = list.New()
	}
	return c
}

// shardIndex spreads consecutive slots of one page across shards with a
// multiplicative hash over the whole OID.
func shardIndex(oid storage.OID) uint64 {
	h := uint64(oid) * 0x9e3779b97f4a7c15
	return (h >> 32) & (numShards - 1)
}

func (c *Cache) shard(oid storage.OID) *shard {
	return &c.shards[shardIndex(oid)]
}

// Get returns the cached decoded value and class name for oid. The returned
// value SHARES its backing slices with the cache: callers must treat it as
// immutable and Clone before mutating (the kernel's UPDATE path does).
func (c *Cache) Get(oid storage.OID) (object.Value, string, bool) {
	sh := c.shard(oid)
	sh.mu.Lock()
	el, ok := sh.table[oid]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return object.Null, "", false
	}
	e := el.Value.(*entry)
	if e.protected {
		sh.protected.MoveToFront(el)
	} else {
		// Second touch: promote out of probation into the protected LRU.
		sh.probation.Remove(el)
		e.protected = true
		sh.table[oid] = sh.protected.PushFront(e)
	}
	v, class := e.val, e.class
	sh.mu.Unlock()
	c.hits.Add(1)
	return v, class, true
}

// GetScan is the scan-resistant Get: a read-locked lookup that skips
// replacement promotion and returns a pointer to the cached value instead
// of a 120-byte copy. Extent scans touch every entry once per pass, so
// promoting on their behalf would only churn the probation/protected lists
// without improving future hit rates (2Q exists precisely to keep scans
// from washing out the hot set) — and skipping the promotion lets scan hits
// share the shard read lock instead of serializing on it. The returned
// pointer aliases the cache entry: entries are immutable after insert (an
// invalidation unlinks, never rewrites), so the pointer stays valid and
// read-only even if the entry is evicted after the lock is dropped. Callers
// must not write through it and must copy before mutating.
func (c *Cache) GetScan(oid storage.OID) (*object.Value, string, bool) {
	sh := c.shard(oid)
	sh.mu.RLock()
	el, ok := sh.table[oid]
	if !ok {
		sh.mu.RUnlock()
		c.misses.Add(1)
		return nil, "", false
	}
	e := el.Value.(*entry)
	sh.mu.RUnlock()
	c.hits.Add(1)
	return &e.val, e.class, true
}

// Contains reports whether oid is cached, without promoting the entry or
// counting a hit or miss: a lookahead that only plans which records a later
// Get will miss.
func (c *Cache) Contains(oid storage.OID) bool {
	sh := c.shard(oid)
	sh.mu.RLock()
	_, ok := sh.table[oid]
	sh.mu.RUnlock()
	return ok
}

// GetScanBatch is GetScan over a page's worth of OIDs at once: vals[i] is
// set to the cached value pointer for oids[i], or nil on a miss. Every
// touched shard is read-locked at most once for the whole batch — one lock
// pair per shard per page instead of one per object — and the hit/miss
// counters are bumped once in bulk, so a sequential scan's per-object cache
// cost collapses to a map lookup. No user code runs under the locks. The
// returned pointers carry GetScan's aliasing contract. Reports the number
// of hits. vals must be at least as long as oids.
//
// The batch holds several shard locks at once, so it takes them in
// ascending shard order: a writer queued on a shard blocks new readers of
// it, and two batches locking in OID order could each wait on a shard the
// other holds behind such a writer.
func (c *Cache) GetScanBatch(oids []storage.OID, vals []*object.Value) int {
	var need uint64 // bit i: shard i is touched (numShards <= 64)
	for _, oid := range oids {
		need |= 1 << shardIndex(oid)
	}
	for i := range c.shards {
		if need&(1<<i) != 0 {
			c.shards[i].mu.RLock()
		}
	}
	hits := 0
	for i, oid := range oids {
		if el, ok := c.shards[shardIndex(oid)].table[oid]; ok {
			vals[i] = &el.Value.(*entry).val
			hits++
		} else {
			vals[i] = nil
		}
	}
	for i := range c.shards {
		if need&(1<<i) != 0 {
			c.shards[i].mu.RUnlock()
		}
	}
	c.hits.Add(int64(hits))
	c.misses.Add(int64(len(oids) - hits))
	return hits
}

// BeginFetch captures the shard epoch for oid. Callers take the token
// BEFORE reading the store, then hand it to Put; any invalidation between
// the two bumps the epoch and the Put is dropped, so a slow reader can never
// install bytes that predate a concurrent update.
func (c *Cache) BeginFetch(oid storage.OID) uint64 {
	sh := c.shard(oid)
	sh.mu.Lock()
	ep := sh.epoch
	sh.mu.Unlock()
	return ep
}

// Put inserts the decoded value for oid, charged as size bytes (the encoded
// record length) plus fixed overhead. The insert is dropped when the shard
// epoch no longer matches token or when the entry alone exceeds the shard
// budget. Reports whether the value was cached.
func (c *Cache) Put(token uint64, oid storage.OID, v object.Value, class string, size int) bool {
	sh := c.shard(oid)
	charged := int64(size) + entryOverhead
	sh.mu.Lock()
	if sh.epoch != token || charged > sh.budget {
		sh.rejected++
		sh.mu.Unlock()
		return false
	}
	if _, ok := sh.table[oid]; ok {
		// A concurrent reader of the same OID won the race; its value is as
		// fresh as ours (same epoch), keep it.
		sh.mu.Unlock()
		return true
	}
	e := &entry{oid: oid, val: v, class: class, size: charged}
	sh.table[oid] = sh.probation.PushFront(e)
	sh.bytes += charged
	sh.evictLocked()
	sh.mu.Unlock()
	c.puts.Add(1)
	return true
}

// evictLocked drops entries until the shard is back under budget: probation
// back first (one-touch entries), then the protected LRU tail.
func (sh *shard) evictLocked() {
	for sh.bytes > sh.budget {
		el := sh.probation.Back()
		from := sh.probation
		if el == nil {
			el = sh.protected.Back()
			from = sh.protected
		}
		if el == nil {
			return
		}
		e := from.Remove(el).(*entry)
		delete(sh.table, e.oid)
		sh.bytes -= e.size
		sh.evictions++
	}
}

// Invalidate removes oid from the cache and bumps the shard epoch so any
// in-flight fetch of it (or of a shard sibling) cannot install a stale
// value. Called by the object store under its exclusive lock on every
// Update/Delete.
func (c *Cache) Invalidate(oid storage.OID) {
	sh := c.shard(oid)
	sh.mu.Lock()
	sh.epoch++
	if el, ok := sh.table[oid]; ok {
		e := el.Value.(*entry)
		if e.protected {
			sh.protected.Remove(el)
		} else {
			sh.probation.Remove(el)
		}
		delete(sh.table, oid)
		sh.bytes -= e.size
	}
	sh.mu.Unlock()
}

// Reset empties the cache and bumps every shard epoch — the big hammer for
// WAL recovery, where pages are rewritten wholesale underneath the cache.
func (c *Cache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.epoch++
		sh.table = make(map[storage.OID]*list.Element)
		sh.probation.Init()
		sh.protected.Init()
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

// Hits returns the cumulative hit count.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the cumulative miss count.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// HitRate returns hits / (hits + misses), 0 when no lookups happened.
func (c *Cache) HitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Snapshot returns the current counters and occupancy.
func (c *Cache) Snapshot() Stats {
	st := Stats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Puts:   c.puts.Load(),
		Budget: c.budget,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Evictions += sh.evictions
		st.Rejected += sh.rejected
		st.Bytes += sh.bytes
		st.Entries += len(sh.table)
		sh.mu.Unlock()
	}
	return st
}
