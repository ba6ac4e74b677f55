//go:build linux

package storage

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitForIgnoresBusyGoroutines pins the latency emulation's wait to
// the requested time while another goroutine keeps a CPU busy. time.Sleep
// of 40µs takes over a millisecond in that state, so emulated page reads
// would be timed by the other clients' CPU use; the bound leaves ten times
// the kernel's timer slack for loaded machines.
func TestWaitForIgnoresBusyGoroutines(t *testing.T) {
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
		}
	}()
	defer func() { stop.Store(true); <-done }()

	const n, d = 200, 40 * time.Microsecond
	t0 := time.Now()
	for range n {
		waitFor(d)
	}
	if per := time.Since(t0) / n; per < d || per > 500*time.Microsecond {
		t.Fatalf("waitFor(%v) took %v per call, want [%v, 500µs]", d, per, d)
	}
}
