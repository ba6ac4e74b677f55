package storage

import (
	"syscall"
	"time"
)

// waitFor blocks the calling goroutine for d of wall time, the latency
// emulation's wait. It sleeps in the kernel (nanosleep on this goroutine's
// thread) rather than on a runtime timer: time.Sleep of tens of
// microseconds wakes up to a millisecond late, and how late depends on
// whether another goroutine keeps a CPU busy at the time, so emulated page
// reads would take as long as the other clients' CPU use decides instead of
// the simulated disk time. The kernel's wake-up is late by its timer slack
// (tens of microseconds) whatever else runs. The thread blocks, not the
// CPU: concurrent waiters still overlap their waits.
func waitFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
