package storage

import "sync/atomic"

// Extent is a named record collection spread over the parts of a Store: one
// heap file per shard, all carrying the extent's name in their own shard's
// file directory. A single-store extent has exactly one part; a ShardedStore
// extent has one part per shard and spreads inserts round-robin across them.
// The catalog holds one Extent per class (and per system table) and never
// touches the underlying files directly.
type Extent struct {
	// Name is the extent's directory name, identical in every shard.
	Name string
	// parts holds the per-shard heap files, indexed by shard id.
	parts []*File
	// rr is the round-robin insert cursor. Placement is rotation, not
	// hashing: it keeps the parts within one record of each other in
	// cardinality, which is what makes per-shard page counts (and therefore
	// simulated read counts) independent of the shard count for
	// fixed-size-record workloads.
	rr atomic.Uint32
}

// Parts returns the number of per-shard parts backing the extent.
func (e *Extent) Parts() int { return len(e.parts) }

// NumRecords returns the record count across all parts.
func (e *Extent) NumRecords() int {
	n := 0
	for _, f := range e.parts {
		n += f.NumRecords()
	}
	return n
}

// NumPages returns the data-page count across all parts.
func (e *Extent) NumPages() int {
	n := 0
	for _, f := range e.parts {
		n += f.NumPages()
	}
	return n
}

// PartPages returns the per-part data-page counts, indexed by shard. The
// cost model prices partitioned scans and reference fetches per shard from
// this vector.
func (e *Extent) PartPages() []int {
	out := make([]int, len(e.parts))
	for i, f := range e.parts {
		out[i] = f.NumPages()
	}
	return out
}

// PartFileID returns the file id backing one part. The kernel's reorganizer
// maps the clustering tracer's per-file observations back to class extents
// through this.
func (e *Extent) PartFileID(part int) FileID { return e.parts[part].ID }

// nextPart returns the part the next insert is routed to.
func (e *Extent) nextPart() int {
	if len(e.parts) == 1 {
		return 0
	}
	return int(e.rr.Add(1)-1) % len(e.parts)
}

// Store is the record-storage contract the catalog (and everything above
// it) programs against: OID-addressed reads and writes plus extent-granular
// creation, scanning and morsel primitives. Two implementations exist —
// the concrete *ObjectStore (one part per extent, the paper's monolithic
// ESM) and *ShardedStore (N independent ObjectStores, each with its own
// buffer pool, simulated disk and WAL; extents get one part per shard and
// OIDs route reads by their shard field).
//
// The part-indexed methods (PartFirstPage, PartPageList, ScanPartRecs,
// PrefetchPart) exist so scans address one shard's page chain at a time:
// page ids are only meaningful within their own shard's disk.
type Store interface {
	// CreateExtent creates the named extent: one heap file per shard.
	CreateExtent(name string) (*Extent, error)
	// OpenExtent opens an existing extent by directory name.
	OpenExtent(name string) (*Extent, error)
	// DropExtent removes the extent's file (and data pages) in every shard.
	DropExtent(name string) error

	// InsertExtent stores data as a new record of the extent and returns
	// its OID, tagged with the shard that holds it.
	InsertExtent(e *Extent, data []byte) (OID, error)
	// Get returns a copy of the record addressed by oid.
	Get(oid OID) ([]byte, error)
	// Update replaces the record addressed by oid; the OID is stable.
	Update(oid OID, data []byte) error
	// Delete removes the record addressed by oid.
	Delete(oid OID) error
	// FetchBatch returns the records of a batch of OIDs, one result slot
	// per input OID in input order.
	FetchBatch(oids []OID) ([][]byte, error)
	// ScanExtent iterates every record of the extent, part by part, each
	// part in page-chain order; returning false stops the scan.
	ScanExtent(e *Extent, fn func(OID, []byte) bool) error

	// Shards returns the number of independent stores behind the interface.
	Shards() int
	// PartFirstPage returns the first data page of one part's chain (0 when
	// the part is empty).
	PartFirstPage(e *Extent, part int) PageID
	// PartPageList returns one part's data pages in chain order.
	PartPageList(e *Extent, part int) ([]PageID, error)
	// ScanPartRecs reads one page of one part, batch-delivering its records
	// to fn exactly as ObjectStore.ScanPageRecs does, and returns the next
	// page of that part's chain.
	ScanPartRecs(e *Extent, part int, pid PageID, readahead bool, scratch []ScanRecord, fn func(recs []ScanRecord) error) (PageID, []ScanRecord, error)
	// PrefetchPart requests background loads of one part's pages (no-op
	// without a prefetcher on that shard).
	PrefetchPart(part int, ids ...PageID)
	// PreloadBatch pins, into p, the pages a FetchBatch of oids reads in
	// its page pass, charging each disk in FetchBatch's page order (see
	// Preload).
	PreloadBatch(p *Preload, oids []OID) error
	// PreloadPart pins, into p, pages of one part in the order given.
	PreloadPart(p *Preload, part int, ids []PageID) error

	// SetInvalidator installs the object-cache invalidation hook on every
	// shard. Install once at open time, before the store is shared.
	SetInvalidator(inv CacheInvalidator)
	// SetBatchObserver installs the clustering observation hook on every
	// shard. Install once at open time, before the store is shared.
	SetBatchObserver(obs BatchObserver)

	// MigrateRecords relocates the given records (all owned by the named
	// part's shard) onto fresh pages of that part, in the order given,
	// leaving forward stubs so every OID stays valid. logPage, when
	// non-nil, receives a whole-page before/after image for every page the
	// migration mutates (see PageLogger). cont continues packing the tail
	// page (the previous batch's destination) instead of opening a fresh
	// one. Returns the records moved.
	MigrateRecords(e *Extent, part int, oids []OID, logPage PageLogger, cont bool) (int, error)
	// CompactExtent removes pages without record content from the extent's
	// scan chains: all-tombstone pages are freed, stub-only migration source
	// pages are parked (unlinked but kept allocated — Get still resolves the
	// stubs by direct page id). Returns the pages removed from the chains.
	CompactExtent(e *Extent) (int, error)

	// Pool returns shard 0's buffer pool. Index structures (B+-trees, hash
	// and join indexes) and the system directory live on shard 0; sharding
	// covers class extents, not index pages.
	Pool() *BufferPool
	// Files returns shard 0's file manager — the directory the catalog's
	// persistent root (DirPage) lives in.
	Files() *FileManager

	// ReadCount returns the cumulative simulated page reads summed across
	// every shard's disk. EXPLAIN ANALYZE totals are deltas of this sum.
	ReadCount() int64
	// ShardReads returns the cumulative simulated page reads per shard.
	ShardReads() []int64
}
