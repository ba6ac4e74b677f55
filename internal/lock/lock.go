// Package lock implements the concurrency-control substrate: a strict
// two-phase lock manager with shared/exclusive/intention modes over a
// file-and-object hierarchy, lock upgrades, and waits-for deadlock
// detection. ESM supplies this service to MOOD ("controlling data access
// and concurrency"); the Function Manager additionally uses it to lock a
// class's shared object while a member function is being rewritten.
package lock

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes. IS/IX/SIX are intention modes taken on files when locking
// individual objects within them.
const (
	ModeNone Mode = iota
	ModeIS
	ModeIX
	ModeS
	ModeSIX
	ModeX
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "NONE"
	case ModeIS:
		return "IS"
	case ModeIX:
		return "IX"
	case ModeS:
		return "S"
	case ModeSIX:
		return "SIX"
	case ModeX:
		return "X"
	}
	return "?"
}

// compatible is the classic multigranularity compatibility matrix.
var compatible = [6][6]bool{
	ModeNone: {true, true, true, true, true, true},
	ModeIS:   {true, true, true, true, true, false},
	ModeIX:   {true, true, true, false, false, false},
	ModeS:    {true, true, false, true, false, false},
	ModeSIX:  {true, true, false, false, false, false},
	ModeX:    {true, false, false, false, false, false},
}

// Compatible reports whether a requested mode can coexist with a held mode.
func Compatible(held, requested Mode) bool { return compatible[held][requested] }

// supremum[a][b] is the weakest mode at least as strong as both a and b,
// used for upgrades.
var supremum = [6][6]Mode{
	ModeNone: {ModeNone, ModeIS, ModeIX, ModeS, ModeSIX, ModeX},
	ModeIS:   {ModeIS, ModeIS, ModeIX, ModeS, ModeSIX, ModeX},
	ModeIX:   {ModeIX, ModeIX, ModeIX, ModeSIX, ModeSIX, ModeX},
	ModeS:    {ModeS, ModeS, ModeSIX, ModeS, ModeSIX, ModeX},
	ModeSIX:  {ModeSIX, ModeSIX, ModeSIX, ModeSIX, ModeSIX, ModeX},
	ModeX:    {ModeX, ModeX, ModeX, ModeX, ModeX, ModeX},
}

// Resource names a lockable entity. Use ObjectResource/FileResource to build
// them consistently.
type Resource string

// ObjectResource names an object by its OID string.
func ObjectResource(oid fmt.Stringer) Resource { return Resource("obj:" + oid.String()) }

// FileResource names a storage file (a class extent or index).
func FileResource(name string) Resource { return Resource("file:" + name) }

// ClassSharedObject names a class's shared-object file, locked by the
// Function Manager while member functions are rewritten (Section 2 of the
// paper: "The shared library of the class will be unavailable only during
// the time it takes to write the new function. We provide locking for this
// operation.").
func ClassSharedObject(class string) Resource { return Resource("so:" + class) }

// Errors returned by Acquire.
var (
	ErrDeadlock = errors.New("lock: deadlock detected")
	ErrTimeout  = errors.New("lock: acquisition timed out")
)

// TxID identifies a transaction to the lock manager (shared with the WAL's
// transaction IDs by the kernel).
type TxID uint32

type request struct {
	tx   TxID
	mode Mode
	// granted requests precede waiting ones in the queue.
	granted bool
	cond    *sync.Cond
}

type lockQueue struct {
	queue []*request
}

// wait is a blocked acquisition: the request and the mode it waits for.
// The cycle check asks conflict for the request's blocker at check time
// instead of remembering the blocker seen when the wait began — that one
// may since have released, and following such a stale edge reports
// deadlocks that do not exist.
type wait struct {
	lq   *lockQueue
	req  *request
	want Mode
}

// Manager is the lock manager.
type Manager struct {
	mu      sync.Mutex
	locks   map[Resource]*lockQueue
	held    map[TxID]map[Resource]Mode
	waits   map[TxID]wait // blocked transactions, for cycle checks
	timeout time.Duration

	acquisitions int64
	waitsCount   int64
	deadlocks    int64
}

// NewManager creates a lock manager. timeout bounds each acquisition; zero
// means wait indefinitely (deadlocks are still detected and broken).
func NewManager(timeout time.Duration) *Manager {
	return &Manager{
		locks:   make(map[Resource]*lockQueue),
		held:    make(map[TxID]map[Resource]Mode),
		waits:   make(map[TxID]wait),
		timeout: timeout,
	}
}

// Acquire obtains the resource in the requested mode for tx, blocking until
// compatible. Re-acquisition upgrades the held mode to the supremum of held
// and requested. Returns ErrDeadlock if granting would create a waits-for
// cycle (the requester is chosen as victim), or ErrTimeout.
func (m *Manager) Acquire(tx TxID, res Resource, mode Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acquisitions++

	lq := m.locks[res]
	if lq == nil {
		lq = &lockQueue{}
		m.locks[res] = lq
	}

	// Upgrade path: find our existing granted request.
	var mine *request
	for _, r := range lq.queue {
		if r.tx == tx && r.granted {
			mine = r
			break
		}
	}
	want := mode
	if mine != nil {
		want = supremum[mine.mode][mode]
		if want == mine.mode {
			return nil // already strong enough
		}
	}

	isUpgrade := mine != nil
	req := mine
	if req == nil {
		req = &request{tx: tx, mode: want, cond: sync.NewCond(&m.mu)}
		lq.queue = append(lq.queue, req)
	}

	deadline := time.Time{}
	var stopTimer chan struct{}
	if m.timeout > 0 {
		deadline = time.Now().Add(m.timeout)
		// One timer goroutine per acquisition (not per wakeup): it pokes
		// the condition variable at the deadline so the waiter can notice
		// the timeout.
		stopTimer = make(chan struct{})
		timer := time.NewTimer(m.timeout)
		go func() {
			defer timer.Stop()
			select {
			case <-timer.C:
				m.mu.Lock()
				req.cond.Broadcast()
				m.mu.Unlock()
			case <-stopTimer:
			}
		}()
		defer close(stopTimer)
	}

	for {
		if blocker := m.conflict(lq, req, want); blocker == 0 {
			req.granted = true
			req.mode = want
			delete(m.waits, tx)
			if m.held[tx] == nil {
				m.held[tx] = make(map[Resource]Mode)
			}
			m.held[tx][res] = want
			return nil
		} else {
			m.waits[tx] = wait{lq: lq, req: req, want: want}
			if m.cycleFrom(tx, blocker) {
				m.deadlocks++
				delete(m.waits, tx)
				if isUpgrade {
					// The upgrade is refused but the original grant stands.
					return fmt.Errorf("%w: tx %d upgrading %s", ErrDeadlock, tx, res)
				}
				m.removeRequest(lq, req, res)
				return fmt.Errorf("%w: tx %d on %s", ErrDeadlock, tx, res)
			}
		}
		m.waitsCount++
		req.cond.Wait()
		if !deadline.IsZero() && time.Now().After(deadline) {
			delete(m.waits, tx)
			if isUpgrade {
				// The upgrade failed but the original grant stands.
				return fmt.Errorf("%w: tx %d upgrading %s", ErrTimeout, tx, res)
			}
			m.removeRequest(lq, req, res)
			return fmt.Errorf("%w: tx %d on %s", ErrTimeout, tx, res)
		}
	}
}

// conflict returns 0 if req can be granted in mode want, else the TxID of
// one conflicting holder/waiter. Caller holds m.mu.
func (m *Manager) conflict(lq *lockQueue, req *request, want Mode) TxID {
	for _, r := range lq.queue {
		if r == req {
			if req.granted {
				continue // upgrade: only granted peers matter, checked below
			}
			// FIFO fairness: a new request waits behind earlier waiters.
			break
		}
		if r.tx == req.tx {
			continue
		}
		if r.granted {
			if !Compatible(r.mode, want) {
				return r.tx
			}
		} else if !req.granted {
			// Earlier waiter: queue behind it to avoid starvation, unless
			// compatible with it too (then both could be granted together).
			if !Compatible(r.mode, want) {
				return r.tx
			}
		}
	}
	if req.granted {
		// Upgrade: every other granted holder must be compatible.
		for _, r := range lq.queue {
			if r != req && r.granted && !Compatible(r.mode, want) {
				return r.tx
			}
		}
	}
	return 0
}

// cycleFrom reports whether following waits-for edges from tx, whose
// current blocker is first, returns to tx. Each edge is the blocked
// request's blocker as of now. Caller holds m.mu.
func (m *Manager) cycleFrom(tx, first TxID) bool {
	seen := map[TxID]bool{}
	for next := first; next != tx; {
		if seen[next] {
			return false
		}
		seen[next] = true
		w, ok := m.waits[next]
		if !ok {
			return false
		}
		if next = m.conflict(w.lq, w.req, w.want); next == 0 {
			return false
		}
	}
	return true
}

func (m *Manager) removeRequest(lq *lockQueue, req *request, res Resource) {
	for i, r := range lq.queue {
		if r == req {
			lq.queue = append(lq.queue[:i], lq.queue[i+1:]...)
			break
		}
	}
	for _, r := range lq.queue {
		r.cond.Broadcast()
	}
	if len(lq.queue) == 0 {
		delete(m.locks, res)
	}
}

// Release drops tx's lock on the resource (rarely used directly: strict 2PL
// releases everything at commit via ReleaseAll).
func (m *Manager) Release(tx TxID, res Resource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(tx, res)
}

func (m *Manager) releaseLocked(tx TxID, res Resource) {
	lq := m.locks[res]
	if lq == nil {
		return
	}
	for i, r := range lq.queue {
		if r.tx == tx && r.granted {
			lq.queue = append(lq.queue[:i], lq.queue[i+1:]...)
			break
		}
	}
	if held := m.held[tx]; held != nil {
		delete(held, res)
		if len(held) == 0 {
			delete(m.held, tx)
		}
	}
	for _, r := range lq.queue {
		r.cond.Broadcast()
	}
	if len(lq.queue) == 0 {
		delete(m.locks, res)
	}
}

// ReleaseAll drops every lock held by tx (commit/abort time).
func (m *Manager) ReleaseAll(tx TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	held := m.held[tx]
	resources := make([]Resource, 0, len(held))
	for res := range held {
		resources = append(resources, res)
	}
	for _, res := range resources {
		m.releaseLocked(tx, res)
	}
	delete(m.waits, tx)
}

// HeldMode returns the mode tx holds on the resource (ModeNone if none).
func (m *Manager) HeldMode(tx TxID, res Resource) Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	if held := m.held[tx]; held != nil {
		return held[res]
	}
	return ModeNone
}

// Stats returns (acquisitions, waits, deadlocks).
func (m *Manager) Stats() (acquisitions, waits, deadlocks int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acquisitions, m.waitsCount, m.deadlocks
}
