//go:build !linux

package storage

import "time"

// waitFor blocks the calling goroutine for d of wall time, the latency
// emulation's wait (see wait_linux.go for why Linux does not use a runtime
// timer).
func waitFor(d time.Duration) { time.Sleep(d) }
