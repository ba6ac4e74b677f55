package storage

import (
	"fmt"
	"sort"
	"sync"
)

// BufferPool caches disk pages in a fixed number of frames, replacing
// unpinned frames with the clock (second-chance) algorithm. ESM provides the
// equivalent buffer management for MOOD; the cost formulas of Section 6 are
// "worst case ... where there are no page hits in the buffer", so benches can
// size the pool down to 1 frame to reproduce that regime, or up to measure
// hit-rate effects.
//
// The pool is sharded for concurrency: pages map to shards by a hash of
// their PageID, and each shard has its own mutex, frame array, hash table,
// clock hand, and hit/miss/flush counters, so parallel morsel workers
// fetching disjoint page ranges do not serialize on one lock. Small pools
// (the cost-model regimes) collapse to a single shard, which preserves the
// seed's exact clock behavior. Disk reads happen outside the shard lock; a
// per-frame loading latch makes two concurrent fetches of the same absent
// page read it once.
type BufferPool struct {
	disk      *DiskSim
	shards    []poolShard
	shardMask uint32
	nframes   int
}

type poolShard struct {
	mu      sync.Mutex
	frames  []frame
	table   map[PageID]int // page -> frame index
	hand    int
	hits    int64
	misses  int64
	flushes int64
	// flushLSN, when set, is consulted before evicting a dirty page so the
	// WAL can enforce write-ahead: all log records up to the page LSN must
	// be durable before the page goes to disk. The hook is kept per shard so
	// a write-out never reaches outside its shard's lock to find it.
	flushLSN func(lsn uint32) error
}

type frame struct {
	id     PageID
	buf    []byte
	pin    int
	dirty  bool
	refbit bool
	valid  bool
	// loading is non-nil while the frame's content is being read from disk
	// outside the shard lock. Concurrent fetchers of the same page wait on
	// it instead of returning a half-filled buffer.
	loading chan struct{}
}

// poolShards picks the shard count for an n-frame pool: a power of two,
// capped so every shard keeps at least 8 frames (small pools degenerate to
// one shard and behave exactly like the unsharded seed pool) and capped at
// 16 overall.
func poolShards(n int) int {
	s := 1
	for s < 16 && s*2*8 <= n {
		s *= 2
	}
	return s
}

// NewBufferPool creates a pool of n frames over the disk.
func NewBufferPool(disk *DiskSim, n int) *BufferPool {
	if n < 1 {
		n = 1
	}
	ns := poolShards(n)
	bp := &BufferPool{
		disk:      disk,
		shards:    make([]poolShard, ns),
		shardMask: uint32(ns - 1),
		nframes:   n,
	}
	for i := range bp.shards {
		sh := &bp.shards[i]
		per := n / ns
		if i < n%ns {
			per++
		}
		sh.frames = make([]frame, per)
		sh.table = make(map[PageID]int, per)
		for j := range sh.frames {
			sh.frames[j].buf = make([]byte, disk.PageSize())
		}
	}
	return bp
}

// shard maps a page to its shard by a multiplicative hash of the PageID, so
// consecutive page IDs spread across shards.
func (bp *BufferPool) shard(id PageID) *poolShard {
	h := uint32(id) * 2654435761
	return &bp.shards[(h>>16)&bp.shardMask]
}

// SetFlushHook installs the WAL write-ahead callback invoked with a page's
// LSN before the page is written out. Safe to call while other goroutines
// use the pool; each shard picks up the new hook under its own lock.
func (bp *BufferPool) SetFlushHook(fn func(lsn uint32) error) {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		sh.flushLSN = fn
		sh.mu.Unlock()
	}
}

// Disk returns the underlying simulated disk.
func (bp *BufferPool) Disk() *DiskSim { return bp.disk }

// Size returns the number of frames.
func (bp *BufferPool) Size() int { return bp.nframes }

// ShardCount returns the number of lock shards the pool was split into.
func (bp *BufferPool) ShardCount() int { return len(bp.shards) }

// HitRate returns the fraction of Fetch calls served from the pool. Safe to
// call mid-run; the figure is a consistent per-shard sum.
func (bp *BufferPool) HitRate() float64 {
	hits, misses, _ := bp.Stats()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Stats returns (hits, misses, flushes) summed across shards. Safe to call
// while other goroutines use the pool.
func (bp *BufferPool) Stats() (hits, misses, flushes int64) {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		flushes += sh.flushes
		sh.mu.Unlock()
	}
	return hits, misses, flushes
}

// PinnedPages returns the number of frames currently pinned — zero when every
// cursor and caller has released its pages (leak checks in tests).
func (bp *BufferPool) PinnedPages() int {
	n := 0
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for j := range sh.frames {
			if sh.frames[j].valid && sh.frames[j].pin > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Resident reports whether the page currently occupies a frame (loading
// counts as resident — the read is already in flight). The prefetcher uses
// it to skip pages readahead cannot help.
func (bp *BufferPool) Resident(id PageID) bool {
	sh := bp.shard(id)
	sh.mu.Lock()
	_, ok := sh.table[id]
	sh.mu.Unlock()
	return ok
}

// NewPage allocates a fresh disk page, pins it, and returns it formatted as
// raw zeroes (callers format it). The page is marked dirty.
func (bp *BufferPool) NewPage() (*Page, error) {
	id := bp.disk.AllocPage()
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, err := sh.victimLocked(bp.disk)
	if err != nil {
		return nil, err
	}
	f := &sh.frames[idx]
	for i := range f.buf {
		f.buf[i] = 0
	}
	f.id, f.pin, f.dirty, f.refbit, f.valid = id, 1, true, true, true
	sh.table[id] = idx
	return NewPage(id, f.buf), nil
}

// Fetch pins the page and returns it, reading it from disk on a miss. The
// disk read happens outside the shard lock; a concurrent Fetch of the same
// page waits on the frame's loading latch rather than observing a partially
// filled buffer.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	buf, _, err := bp.pin(id, true, false)
	if err != nil {
		return nil, err
	}
	return NewPage(id, buf), nil
}

// pin pins the page, reading it from disk on a miss, and returns its frame
// buffer and the simulated microseconds the read charged (zero on a hit).
// With wait, latency emulation sleeps the read off before the loading latch
// opens, as Fetch always has; without, the caller owes the wait. With spare,
// pin declines (nil buffer, nil error) rather than pin one more frame once
// half of the shard's frames are pinned.
func (bp *BufferPool) pin(id PageID, wait, spare bool) ([]byte, int64, error) {
	sh := bp.shard(id)
	for {
		sh.mu.Lock()
		if idx, ok := sh.table[id]; ok {
			f := &sh.frames[idx]
			if ch := f.loading; ch != nil {
				// Someone else is reading this page in right now; wait for
				// them and retry (the load may also fail and vacate the
				// frame, in which case we become the loader).
				sh.mu.Unlock()
				<-ch
				continue
			}
			if spare && f.pin == 0 && !sh.spareLocked() {
				sh.mu.Unlock()
				return nil, 0, nil
			}
			f.pin++
			f.refbit = true
			sh.hits++
			sh.mu.Unlock()
			return f.buf, 0, nil
		}
		if spare && !sh.spareLocked() {
			sh.mu.Unlock()
			return nil, 0, nil
		}
		sh.misses++
		idx, err := sh.victimLocked(bp.disk)
		if err != nil {
			sh.mu.Unlock()
			return nil, 0, err
		}
		f := &sh.frames[idx]
		ch := make(chan struct{})
		f.id, f.pin, f.dirty, f.refbit, f.valid, f.loading = id, 1, false, true, true, ch
		sh.table[id] = idx
		buf := f.buf
		sh.mu.Unlock()

		// Read outside the lock so hits on other pages of this shard (and
		// concurrent loads) proceed; the frame is pinned so it cannot be
		// stolen meanwhile, and the latch keeps same-page fetchers out.
		us, rerr := bp.readVerified(id, buf)
		if wait {
			bp.disk.emulate(us)
		}
		sh.mu.Lock()
		f.loading = nil
		if rerr != nil {
			f.pin--
			f.valid = false
			delete(sh.table, id)
		}
		sh.mu.Unlock()
		close(ch)
		if rerr != nil {
			return nil, 0, rerr
		}
		return buf, us, nil
	}
}

// spareLocked reports whether pinning one more frame still leaves at least
// half of the shard's frames unpinned. Caller holds sh.mu.
func (sh *poolShard) spareLocked() bool {
	pinned := 1
	for i := range sh.frames {
		if sh.frames[i].valid && sh.frames[i].pin > 0 {
			pinned++
		}
	}
	return 2*pinned <= len(sh.frames)
}

// readVerified reads the page and checks it against the checksum of its
// last complete write, so a torn page surfaces at the first live fetch
// instead of only during crash-recovery replay. With doublewrite retention
// on, a mismatch is repaired from the last good image and re-read; without
// it the checksum error propagates to the caller. It returns the simulated
// microseconds charged and leaves the latency wait to the caller.
func (bp *BufferPool) readVerified(id PageID, buf []byte) (int64, error) {
	us, err := bp.disk.readPage(id, buf)
	if err != nil {
		return us, err
	}
	verr := bp.disk.VerifyPage(id)
	if verr == nil {
		return us, nil
	}
	if !bp.disk.DoublewriteEnabled() {
		return us, verr
	}
	if err := bp.disk.RepairPage(id); err != nil {
		return us, verr
	}
	again, err := bp.disk.readPage(id, buf)
	us += again
	if err != nil {
		return us, err
	}
	return us, bp.disk.VerifyPage(id)
}

// MarkDirty records that the pinned page has been modified.
func (bp *BufferPool) MarkDirty(id PageID) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if idx, ok := sh.table[id]; ok {
		sh.frames[idx].dirty = true
	}
}

// Unpin releases one pin on the page; dirty additionally marks it modified.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.table[id]
	if !ok {
		return fmt.Errorf("storage: unpin of page %d not in pool", id)
	}
	f := &sh.frames[idx]
	if f.pin <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	f.pin--
	if dirty {
		f.dirty = true
	}
	return nil
}

// FlushPage forces the page to disk if it is dirty.
func (bp *BufferPool) FlushPage(id PageID) error {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.table[id]
	if !ok {
		return nil
	}
	return sh.writeOutLocked(idx, bp.disk)
}

// residentPages returns the IDs of all valid frames, sorted ascending, so
// multi-shard maintenance passes touch pages in a deterministic order.
func (bp *BufferPool) residentPages() []PageID {
	var ids []PageID
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for j := range sh.frames {
			if sh.frames[j].valid {
				ids = append(ids, sh.frames[j].id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// FlushAll forces every dirty page to disk, in ascending PageID order so the
// simulated write sequence is deterministic regardless of sharding.
func (bp *BufferPool) FlushAll() error {
	for _, id := range bp.residentPages() {
		if err := bp.FlushPage(id); err != nil {
			return err
		}
	}
	return nil
}

// EvictAll flushes and invalidates every unpinned frame, leaving the pool
// cold (measurement harnesses use it to defeat cache warm-up). Pages are
// processed in ascending PageID order for deterministic write accounting.
func (bp *BufferPool) EvictAll() error {
	for _, id := range bp.residentPages() {
		sh := bp.shard(id)
		sh.mu.Lock()
		idx, ok := sh.table[id]
		if !ok {
			sh.mu.Unlock()
			continue
		}
		f := &sh.frames[idx]
		if f.pin > 0 || f.loading != nil {
			sh.mu.Unlock()
			continue
		}
		if err := sh.writeOutLocked(idx, bp.disk); err != nil {
			sh.mu.Unlock()
			return err
		}
		delete(sh.table, id)
		f.valid = false
		sh.mu.Unlock()
	}
	return nil
}

// Drop removes the page from the pool without writing it (used when a page
// is freed).
func (bp *BufferPool) Drop(id PageID) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if idx, ok := sh.table[id]; ok {
		sh.frames[idx] = frame{buf: sh.frames[idx].buf}
		delete(sh.table, id)
	}
}

// writeOutLocked flushes frame i if valid and dirty. Caller holds sh.mu.
func (sh *poolShard) writeOutLocked(i int, disk *DiskSim) error {
	f := &sh.frames[i]
	if !f.valid || !f.dirty {
		return nil
	}
	if sh.flushLSN != nil {
		lsn := NewPage(f.id, f.buf).LSN()
		if err := sh.flushLSN(lsn); err != nil {
			return err
		}
	}
	if err := disk.WritePage(f.id, f.buf); err != nil {
		return err
	}
	f.dirty = false
	sh.flushes++
	return nil
}

// victimLocked finds a free or evictable frame using the clock algorithm,
// flushing the victim if dirty. Caller holds sh.mu. A shard whose frames are
// all pinned reports ErrBufferBusy even if other shards have room — the
// price of independent shard locks, mitigated by keeping ≥8 frames per
// shard.
func (sh *poolShard) victimLocked(disk *DiskSim) (int, error) {
	n := len(sh.frames)
	for scanned := 0; scanned < 2*n; scanned++ {
		i := sh.hand
		sh.hand = (sh.hand + 1) % n
		f := &sh.frames[i]
		if !f.valid {
			return i, nil
		}
		if f.pin > 0 {
			continue
		}
		if f.refbit {
			f.refbit = false
			continue
		}
		if err := sh.writeOutLocked(i, disk); err != nil {
			return 0, err
		}
		delete(sh.table, f.id)
		f.valid = false
		return i, nil
	}
	return 0, ErrBufferBusy
}
