package storage

import (
	"bytes"
	"testing"
)

// TestPreloadBatchMatchesFetchBatchReads checks that preloading a batch
// charges the disk exactly what FetchBatch itself would (same reads, same
// random/sequential split, same simulated time), keeps the pages pinned so
// the FetchBatch that follows reads nothing, and unpins on Release.
func TestPreloadBatchMatchesFetchBatchReads(t *testing.T) {
	store, bp, disk := newTestStore(t, 256)
	f, err := store.Files().CreateFile("preload")
	if err != nil {
		t.Fatalf("CreateFile: %v", err)
	}
	var oids []OID
	rec := bytes.Repeat([]byte("p"), 500)
	for i := 0; i < 60; i++ {
		oid, err := store.Insert(f, rec)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		oids = append(oids, oid)
	}
	// Request in reverse, with a duplicate, as an unsorted probe would.
	req := []OID{oids[3]}
	for i := len(oids) - 1; i >= 0; i-- {
		req = append(req, oids[i])
	}

	cold := func() {
		t.Helper()
		if err := bp.EvictAll(); err != nil {
			t.Fatalf("EvictAll: %v", err)
		}
		disk.ResetStats()
	}
	cold()
	if _, err := store.FetchBatch(req); err != nil {
		t.Fatalf("FetchBatch: %v", err)
	}
	want := disk.Stats()
	if want.Reads() < 4 {
		t.Fatalf("fixture spans %d pages, want several", want.Reads())
	}

	cold()
	var p Preload
	if err := store.PreloadBatch(&p, req); err != nil {
		t.Fatalf("PreloadBatch: %v", err)
	}
	if got := disk.Stats(); got != want {
		t.Fatalf("preload charged %v, FetchBatch charges %v", got, want)
	}
	if got := bp.PinnedPages(); int64(got) != want.Reads() {
		t.Fatalf("%d pages pinned after preload, want %d", got, want.Reads())
	}
	got, err := store.FetchBatch(req)
	if err != nil {
		t.Fatalf("FetchBatch after preload: %v", err)
	}
	if after := disk.Stats(); after != want {
		t.Fatalf("FetchBatch after preload read more pages: %v, want %v", after, want)
	}
	for i := range got {
		if !bytes.Equal(got[i], rec) {
			t.Fatalf("result %d differs after preload", i)
		}
	}
	if err := p.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if n := bp.PinnedPages(); n != 0 {
		t.Fatalf("%d pages still pinned after Release", n)
	}
}

// TestPreloadLeavesHalfThePoolUnpinned checks the buffer-pressure rule: a
// preload stops, without an error and without reading further pages, once
// one more pin would leave fewer than half of the shard's frames unpinned.
func TestPreloadLeavesHalfThePoolUnpinned(t *testing.T) {
	bp, disk := newTestPool(t, 4)
	var ids []PageID
	for i := 0; i < 4; i++ {
		ids = append(ids, disk.AllocPage())
	}
	var p Preload
	if err := bp.Preload(&p, ids); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	if n := bp.PinnedPages(); n != 2 {
		t.Fatalf("%d pages pinned in a 4-frame pool, want 2", n)
	}
	if r := disk.Stats().Reads(); r != 2 {
		t.Fatalf("preload read %d pages, want 2", r)
	}
	if err := p.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if n := bp.PinnedPages(); n != 0 {
		t.Fatalf("%d pages still pinned after Release", n)
	}
}
