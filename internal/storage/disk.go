// Package storage implements the storage-manager substrate MOOD relies on.
//
// The paper builds MOOD on the Exodus Storage Manager (ESM), which supplies
// storage management, concurrency-controlled data access, and recovery.
// This package is the Go substitute: a simulated disk with the physical cost
// parameters of the paper's Table 10, slotted pages, a buffer pool with
// clock replacement, ESM-style files, and an object store addressed by OIDs.
//
// One ESM property the paper calls out explicitly is preserved: an ESM file
// is stored as a B+ tree of pages, so the "sequential" scan of a file costs
// the same as random access unless the allocator happens to lay pages out
// contiguously. DiskSim therefore distinguishes sequential from random block
// accesses by physical adjacency, exactly as the SEQCOST/RNDCOST formulas of
// Section 5 do.
package storage

import (
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mood/internal/fault"
)

// DiskParams holds the physical disk parameters of the paper's Table 10.
// All times are in milliseconds; BlockSize is in bytes.
type DiskParams struct {
	BlockSize int     // B: block size in bytes
	BTT       float64 // btt: block transfer time
	EBT       float64 // ebt: effective block transfer time (sequential)
	R         float64 // r: average rotational latency
	S         float64 // s: average seek time
}

// DefaultDiskParams returns Salzberg-style parameters for a late-1980s disk,
// the era of the paper's cost references [Sal 88]. The paper itself does not
// print the values it used; these are configurable everywhere they are used.
func DefaultDiskParams() DiskParams {
	return DiskParams{
		BlockSize: 4096,
		BTT:       0.84, // ms to transfer one block after positioning
		EBT:       0.84, // ms per block when reading consecutively
		R:         8.3,  // ms average rotational latency
		S:         16.0, // ms average seek
	}
}

// RandomAccessTime returns the cost in milliseconds of one random block read:
// a seek, half a rotation, and one block transfer (s + r + btt).
func (p DiskParams) RandomAccessTime() float64 { return p.S + p.R + p.BTT }

// SequentialAccessTime returns the cost in milliseconds of reading b blocks
// laid out consecutively: one seek, one rotational latency, then b effective
// block transfers (s + r + b*ebt), the paper's SEQCOST(b).
func (p DiskParams) SequentialAccessTime(b int) float64 {
	if b <= 0 {
		return 0
	}
	return p.S + p.R + float64(b)*p.EBT
}

// microseconds converts a cost in milliseconds to the integer microsecond
// unit DiskSim accounts in. Integer accumulation is exact and commutative,
// so totals are free of floating-point drift and a given set of charges sums
// to the same total in any order. Which charge an access draws (random or
// sequential) does depend on access order; see DiskSim.charge.
func microseconds(ms float64) int64 { return int64(math.Round(ms * 1000)) }

// PageID identifies a page within the simulated disk. Pages are allocated
// from a single flat address space; files map their logical page numbers to
// PageIDs through an allocation tree (see file.go).
type PageID uint32

// InvalidPageID is the zero PageID; page 0 is reserved for the disk header.
const InvalidPageID PageID = 0

// DiskStats aggregates the physical accesses performed against a DiskSim.
// Time is accounted internally in integer microseconds (TimeUs); TimeMs is
// derived from it at snapshot time, so rendered milliseconds carry no
// accumulated floating-point error.
type DiskStats struct {
	RandomReads      int64   // block reads preceded by a repositioning
	SequentialReads  int64   // block reads physically adjacent to the previous access
	RandomWrites     int64   // block writes preceded by a repositioning
	SequentialWrites int64   // block writes physically adjacent to the previous access
	TimeUs           int64   // accumulated simulated time in microseconds
	TimeMs           float64 // TimeUs expressed in milliseconds
}

// Reads returns the total number of block reads.
func (s DiskStats) Reads() int64 { return s.RandomReads + s.SequentialReads }

// Writes returns the total number of block writes.
func (s DiskStats) Writes() int64 { return s.RandomWrites + s.SequentialWrites }

// Accesses returns the total number of block accesses.
func (s DiskStats) Accesses() int64 { return s.Reads() + s.Writes() }

func (s DiskStats) String() string {
	return fmt.Sprintf("reads=%d (rnd %d, seq %d) writes=%d (rnd %d, seq %d) time=%.3fms",
		s.Reads(), s.RandomReads, s.SequentialReads,
		s.Writes(), s.RandomWrites, s.SequentialWrites, s.TimeMs)
}

// DiskSim is an in-memory simulated disk. Every page access is accounted
// against the physical parameters, so higher layers can compare measured
// costs with the analytic formulas of Sections 5 and 6.
//
// DiskSim is safe for concurrent use: page contents are guarded by an
// RWMutex (parallel readers proceed concurrently), and the access counters
// are atomics, so the simulated-time total is an integer sum free of
// rounding drift. The sum is commutative, but the sequential-vs-random
// classification is not: each access is classified against the access that
// preceded it on this disk (one atomic swap of the head position), so the
// total depends on the order accesses arrive. Concurrent readers that need
// a schedule-independent total must arrive in a fixed order — the parallel
// executor's ordered task loading (BufferPool.Preload) provides it. Under
// ESM layout accounting (every access random) the order does not matter.
type DiskSim struct {
	mu     sync.RWMutex // guards pages, sums, good, free, next, fi, doublewrite
	params DiskParams
	pages  map[PageID][]byte
	next   PageID
	free   []PageID

	last atomic.Uint32 // last physically accessed page, for adjacency detection

	randomReads      atomic.Int64
	sequentialReads  atomic.Int64
	randomWrites     atomic.Int64
	sequentialWrites atomic.Int64
	timeUs           atomic.Int64

	randUs int64 // cost of one random access, µs
	ebtUs  int64 // cost of one adjacent block transfer, µs

	// esmLayout models ESM's file organization (a B+ tree of pages):
	// logically consecutive pages are not physically adjacent, so every
	// access is charged as random — the paper's "the sequential access
	// cost of a file is equal to its random access cost".
	esmLayout atomic.Bool

	// latencyNsPerSimMs, when nonzero, makes every access sleep that many
	// wall nanoseconds per simulated millisecond charged, after all locks
	// are released. It turns the simulated cost model into real waiting so
	// parallel workers can overlap I/O latency — the effect the morsel
	// benches measure — without changing any counter or simulated total.
	latencyNsPerSimMs atomic.Int64

	// fi, when set, is consulted on every page read/write so crash-recovery
	// tests can fail the Nth access, tear a write, or kill the disk.
	fi *fault.Injector
	// sums holds the CRC of each page's last complete write; a torn write
	// records the CRC of the write it failed to complete, so the mismatch
	// is detectable exactly as a page-checksum mismatch would be.
	sums map[PageID]uint32
	// good, when doublewrite is on, holds each page's last
	// checksum-consistent image; RepairPage restores it, modelling a
	// doublewrite buffer / mirrored write.
	good        map[PageID][]byte
	doublewrite bool
}

// NewDiskSim creates an empty simulated disk with the given parameters.
func NewDiskSim(params DiskParams) *DiskSim {
	if params.BlockSize <= 0 {
		params = DefaultDiskParams()
	}
	return &DiskSim{
		params: params,
		pages:  make(map[PageID][]byte),
		sums:   make(map[PageID]uint32),
		good:   make(map[PageID][]byte),
		next:   1, // page 0 reserved
		randUs: microseconds(params.RandomAccessTime()),
		ebtUs:  microseconds(params.EBT),
	}
}

// SetFaultInjector attaches (or, with nil, detaches) a fault injector.
// While attached, every ReadPage/WritePage consults it and may fail with
// fault.ErrTransient or fault.ErrCrash, or persist only part of a write.
func (d *DiskSim) SetFaultInjector(fi *fault.Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fi = fi
}

// SetDoublewrite enables retention of each page's last checksum-consistent
// image so torn pages can be repaired with RepairPage (the discipline real
// systems implement with a doublewrite buffer or full-page logging).
func (d *DiskSim) SetDoublewrite(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.doublewrite = on
}

// DoublewriteEnabled reports whether torn pages can be repaired from the
// retained good images (the read path's verify fallback consults it).
func (d *DiskSim) DoublewriteEnabled() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.doublewrite
}

// SetLatency makes every subsequent page access block the calling goroutine
// for perSimMs of wall time per simulated millisecond charged (zero turns
// emulation off, the default). The sleep happens after every lock is
// released, so concurrent workers overlap their waits exactly as they would
// overlap real disk I/O. Counters and simulated totals are unaffected.
func (d *DiskSim) SetLatency(perSimMs time.Duration) {
	d.latencyNsPerSimMs.Store(int64(perSimMs))
}

// Params returns the physical parameters of the disk.
func (d *DiskSim) Params() DiskParams { return d.params }

// PageSize returns the block size in bytes.
func (d *DiskSim) PageSize() int { return d.params.BlockSize }

// AllocPage reserves a fresh zeroed page and returns its ID. Freed pages are
// recycled first, which — as on a real allocator — gradually destroys
// physical adjacency for "sequential" files.
func (d *DiskSim) AllocPage() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var id PageID
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		id = d.next
		d.next++
	}
	buf := make([]byte, d.params.BlockSize)
	d.pages[id] = buf
	d.sums[id] = crc32.ChecksumIEEE(buf)
	if d.doublewrite {
		d.good[id] = make([]byte, d.params.BlockSize)
	}
	return id
}

// FreePage returns a page to the allocator. Accessing a freed page is an
// error until it is re-allocated.
func (d *DiskSim) FreePage(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.pages[id]; !ok {
		return fmt.Errorf("storage: free of unallocated page %d", id)
	}
	delete(d.pages, id)
	delete(d.sums, id)
	delete(d.good, id)
	d.free = append(d.free, id)
	return nil
}

// NumPages returns the number of currently allocated pages.
func (d *DiskSim) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// charge accounts one access of kind (read/write, adjacent or not) and
// returns the microseconds charged; the caller sleeps them out after
// releasing its locks if latency emulation is on. The head moves with one
// atomic swap, so every access is classified against exactly the access
// that preceded it in some serial order — two concurrent accesses can never
// both continue from the same head position.
func (d *DiskSim) charge(id PageID, write bool) int64 {
	prev := d.last.Swap(uint32(id))
	var us int64
	if !d.esmLayout.Load() && prev != 0 && uint32(id) == prev+1 {
		if write {
			d.sequentialWrites.Add(1)
		} else {
			d.sequentialReads.Add(1)
		}
		us = d.ebtUs
	} else {
		if write {
			d.randomWrites.Add(1)
		} else {
			d.randomReads.Add(1)
		}
		us = d.randUs
	}
	d.timeUs.Add(us)
	return us
}

// wallFor converts us simulated microseconds to the wall-clock wait latency
// emulation owes for them (zero when emulation is off).
func (d *DiskSim) wallFor(us int64) time.Duration {
	return time.Duration(us * d.latencyNsPerSimMs.Load() / 1000)
}

// emulate blocks for the wall-clock equivalent of us simulated microseconds
// when latency emulation is on. Never called with locks held.
func (d *DiskSim) emulate(us int64) {
	if w := d.wallFor(us); w > 0 {
		waitFor(w)
	}
}

// ReadPage copies the content of the page into buf, which must be exactly
// one block long, and charges the physical cost of the access.
func (d *DiskSim) ReadPage(id PageID, buf []byte) error {
	us, err := d.readPage(id, buf)
	d.emulate(us)
	return err
}

// readPage is ReadPage without the latency wait: it charges the access and
// returns the simulated microseconds the caller owes, so a caller that must
// charge reads in a fixed order can do so under a lock and sleep afterwards.
func (d *DiskSim) readPage(id PageID, buf []byte) (int64, error) {
	d.mu.RLock()
	src, ok := d.pages[id]
	if !ok {
		d.mu.RUnlock()
		return 0, fmt.Errorf("storage: read of unallocated page %d", id)
	}
	if len(buf) != d.params.BlockSize {
		d.mu.RUnlock()
		return 0, fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), d.params.BlockSize)
	}
	switch d.fi.Check(fault.OpPageRead).Kind {
	case fault.Transient:
		d.mu.RUnlock()
		return 0, fmt.Errorf("storage: read page %d: %w", id, fault.ErrTransient)
	case fault.Torn, fault.Crash:
		d.mu.RUnlock()
		return 0, fmt.Errorf("storage: read page %d: %w", id, fault.ErrCrash)
	}
	copy(buf, src)
	d.mu.RUnlock()
	return d.charge(id, false), nil
}

// WritePage stores buf (exactly one block) as the new content of the page
// and charges the physical cost of the access.
func (d *DiskSim) WritePage(id PageID, buf []byte) error {
	if err := d.writePageLocked(id, buf); err != nil {
		return err
	}
	d.emulate(d.charge(id, true))
	return nil
}

func (d *DiskSim) writePageLocked(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	dst, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	if len(buf) != d.params.BlockSize {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), d.params.BlockSize)
	}
	switch dec := d.fi.Check(fault.OpPageWrite); dec.Kind {
	case fault.Transient:
		// Nothing reaches the platter; a retry will succeed.
		return fmt.Errorf("storage: write page %d: %w", id, fault.ErrTransient)
	case fault.Crash:
		// Power lost before the write started.
		return fmt.Errorf("storage: write page %d: %w", id, fault.ErrCrash)
	case fault.Torn:
		// Power lost mid-write: a prefix of the new image lands on top of
		// the old bytes, while the recorded checksum is that of the full
		// intended write — the page is detectably corrupt.
		n := int(dec.TornFrac * float64(d.params.BlockSize))
		if n < 1 {
			n = 1
		}
		if n >= d.params.BlockSize {
			n = d.params.BlockSize - 1
		}
		copy(dst[:n], buf[:n])
		d.sums[id] = crc32.ChecksumIEEE(buf)
		return fmt.Errorf("storage: torn write of page %d (%d/%d bytes): %w",
			id, n, d.params.BlockSize, fault.ErrCrash)
	}
	copy(dst, buf)
	d.sums[id] = crc32.ChecksumIEEE(buf)
	if d.doublewrite {
		g := d.good[id]
		if g == nil {
			g = make([]byte, d.params.BlockSize)
			d.good[id] = g
		}
		copy(g, buf)
	}
	return nil
}

// SetESMLayout toggles ESM file-layout accounting: when on, every page
// access costs a full random access regardless of adjacency.
func (d *DiskSim) SetESMLayout(on bool) {
	d.esmLayout.Store(on)
}

// VerifyPage checks the page's content against the checksum of its last
// complete write. A torn write leaves a mismatch, which this reports as an
// error naming the page.
func (d *DiskSim) VerifyPage(id PageID) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.verifyLocked(id)
}

func (d *DiskSim) verifyLocked(id PageID) error {
	buf, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: verify of unallocated page %d", id)
	}
	if got := crc32.ChecksumIEEE(buf); got != d.sums[id] {
		return fmt.Errorf("storage: page %d checksum mismatch (torn write): got %08x want %08x",
			id, got, d.sums[id])
	}
	return nil
}

// CorruptPages scans every allocated page and returns the IDs whose content
// fails checksum verification, sorted ascending. A crash-recovery pass runs
// this first to find torn pages.
func (d *DiskSim) CorruptPages() []PageID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []PageID
	for id := range d.pages {
		if d.verifyLocked(id) != nil {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RepairPage restores the page's last checksum-consistent image from the
// doublewrite area (SetDoublewrite must have been on when the page was last
// written completely). Recovery then rolls the page forward from the log.
func (d *DiskSim) RepairPage(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	buf, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: repair of unallocated page %d", id)
	}
	g, ok := d.good[id]
	if !ok {
		return fmt.Errorf("storage: no doublewrite image for page %d", id)
	}
	copy(buf, g)
	d.sums[id] = crc32.ChecksumIEEE(buf)
	return nil
}

// StatsScope measures the disk activity of one region of code: the counter
// snapshot taken when the scope opened, subtracted from the live counters on
// Delta. The executor opens one scope per physical operator so EXPLAIN
// ANALYZE can attribute simulated page reads operator by operator.
type StatsScope struct {
	d     *DiskSim
	start DiskStats
}

// Scope opens a stats scope at the current counter values.
func (d *DiskSim) Scope() *StatsScope {
	return &StatsScope{d: d, start: d.Stats()}
}

// Delta returns the disk activity since the scope opened.
func (s *StatsScope) Delta() DiskStats {
	cur := s.d.Stats()
	out := DiskStats{
		RandomReads:      cur.RandomReads - s.start.RandomReads,
		SequentialReads:  cur.SequentialReads - s.start.SequentialReads,
		RandomWrites:     cur.RandomWrites - s.start.RandomWrites,
		SequentialWrites: cur.SequentialWrites - s.start.SequentialWrites,
		TimeUs:           cur.TimeUs - s.start.TimeUs,
	}
	out.TimeMs = float64(out.TimeUs) / 1000
	return out
}

// Stats returns a snapshot of the accumulated access statistics.
func (d *DiskSim) Stats() DiskStats {
	s := DiskStats{
		RandomReads:      d.randomReads.Load(),
		SequentialReads:  d.sequentialReads.Load(),
		RandomWrites:     d.randomWrites.Load(),
		SequentialWrites: d.sequentialWrites.Load(),
		TimeUs:           d.timeUs.Load(),
	}
	s.TimeMs = float64(s.TimeUs) / 1000
	return s
}

// ResetStats zeroes the access counters (the page contents are untouched).
func (d *DiskSim) ResetStats() {
	d.randomReads.Store(0)
	d.sequentialReads.Store(0)
	d.randomWrites.Store(0)
	d.sequentialWrites.Store(0)
	d.timeUs.Store(0)
	d.last.Store(0)
}
