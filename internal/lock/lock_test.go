package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		held, req Mode
		want      bool
	}{
		{ModeS, ModeS, true},
		{ModeS, ModeX, false},
		{ModeX, ModeS, false},
		{ModeX, ModeX, false},
		{ModeIS, ModeIX, true},
		{ModeIX, ModeIX, true},
		{ModeIX, ModeS, false},
		{ModeSIX, ModeIS, true},
		{ModeSIX, ModeIX, false},
		{ModeNone, ModeX, true},
	}
	for _, c := range cases {
		if got := Compatible(c.held, c.req); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.held, c.req, got, c.want)
		}
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager(time.Second)
	res := FileResource("extent")
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, ModeS); err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(1, res) != ModeS || m.HeldMode(2, res) != ModeS {
		t.Error("shared holders not recorded")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}

func TestExclusiveBlocksAndHandsOver(t *testing.T) {
	m := NewManager(0)
	res := FileResource("extent")
	if err := m.Acquire(1, res, ModeX); err != nil {
		t.Fatal(err)
	}
	var got atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.Acquire(2, res, ModeX); err != nil {
			t.Errorf("tx2 acquire: %v", err)
			return
		}
		got.Store(true)
	}()
	time.Sleep(20 * time.Millisecond)
	if got.Load() {
		t.Fatal("X lock granted while conflicting X held")
	}
	m.ReleaseAll(1)
	wg.Wait()
	if !got.Load() {
		t.Fatal("waiter never granted after release")
	}
	m.ReleaseAll(2)
}

func TestUpgradeSToX(t *testing.T) {
	m := NewManager(time.Second)
	res := ObjectResourceString("obj1")
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, res, ModeX); err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(1, res) != ModeX {
		t.Errorf("mode after upgrade = %v, want X", m.HeldMode(1, res))
	}
	// Re-acquire weaker is a no-op.
	if err := m.Acquire(1, res, ModeS); err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(1, res) != ModeX {
		t.Error("weaker re-acquire downgraded the lock")
	}
	m.ReleaseAll(1)
}

// ObjectResourceString helps tests name object resources without an OID.
func ObjectResourceString(s string) Resource { return Resource("obj:" + s) }

func TestUpgradeBlocksOnOtherReader(t *testing.T) {
	m := NewManager(50 * time.Millisecond)
	res := FileResource("f")
	m.Acquire(1, res, ModeS)
	m.Acquire(2, res, ModeS)
	err := m.Acquire(1, res, ModeX)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("upgrade with concurrent reader: %v, want timeout", err)
	}
	m.ReleaseAll(2)
	if err := m.Acquire(1, res, ModeX); err != nil {
		t.Fatalf("upgrade after reader left: %v", err)
	}
	m.ReleaseAll(1)
}

// TestUpgradeDeadlockKeepsGrant covers the classic upgrade deadlock: two
// readers both ask for X. The second is the victim; its refused upgrade
// must leave its S grant standing, so the other upgrade still waits until
// the victim releases.
func TestUpgradeDeadlockKeepsGrant(t *testing.T) {
	m := NewManager(0)
	res := FileResource("f")
	m.Acquire(1, res, ModeS)
	m.Acquire(2, res, ModeS)
	upgraded := make(chan error, 1)
	go func() { upgraded <- m.Acquire(1, res, ModeX) }()
	time.Sleep(20 * time.Millisecond)
	if err := m.Acquire(2, res, ModeX); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrade: %v, want deadlock", err)
	}
	if mode := m.HeldMode(2, res); mode != ModeS {
		t.Fatalf("victim holds %s after its refused upgrade, want S", mode)
	}
	select {
	case err := <-upgraded:
		t.Fatalf("upgrade granted (%v) while the victim still holds S", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-upgraded; err != nil {
		t.Fatalf("upgrade after the victim released: %v", err)
	}
	m.ReleaseAll(1)
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager(0)
	a, b := FileResource("a"), FileResource("b")
	m.Acquire(1, a, ModeX)
	m.Acquire(2, b, ModeX)

	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(1, b, ModeX) }()
	time.Sleep(20 * time.Millisecond)
	go func() { errs <- m.Acquire(2, a, ModeX) }()

	var deadlocked, granted int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				deadlocked++
				// Victim rolls back, releasing its locks.
				if err == nil {
					t.Fatal("unreachable")
				}
			} else if err == nil {
				granted++
			} else {
				t.Fatalf("unexpected error: %v", err)
			}
			// Whichever tx finished (victim or not), release to let the
			// other proceed.
			if deadlocked == 1 && granted == 0 {
				// victim releases everything
				m.ReleaseAll(1)
				m.ReleaseAll(2)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("deadlock not broken within 2s")
		}
	}
	if deadlocked != 1 {
		t.Errorf("deadlocks = %d, want exactly 1 victim", deadlocked)
	}
	_, _, dl := m.Stats()
	if dl != 1 {
		t.Errorf("Stats deadlocks = %d", dl)
	}
}

func TestReleaseAllWakesWaiters(t *testing.T) {
	m := NewManager(0)
	r1, r2 := FileResource("r1"), FileResource("r2")
	m.Acquire(1, r1, ModeX)
	m.Acquire(1, r2, ModeX)
	var wg sync.WaitGroup
	for i, res := range []Resource{r1, r2} {
		wg.Add(1)
		go func(tx TxID, res Resource) {
			defer wg.Done()
			if err := m.Acquire(tx, res, ModeS); err != nil {
				t.Errorf("tx %d: %v", tx, err)
			}
		}(TxID(10+i), res)
	}
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(1)
	wg.Wait()
	m.ReleaseAll(10)
	m.ReleaseAll(11)
}

func TestFunctionManagerSharedObjectLocking(t *testing.T) {
	// The paper's Section 2 scenario: while one session rewrites a member
	// function (X on the class's shared object), invocations (S) wait.
	m := NewManager(0)
	so := ClassSharedObject("Vehicle")
	if err := m.Acquire(1, so, ModeX); err != nil {
		t.Fatal(err)
	}
	invoked := make(chan error, 1)
	go func() { invoked <- m.Acquire(2, so, ModeS) }()
	select {
	case <-invoked:
		t.Fatal("invocation proceeded during function rewrite")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1) // rewrite done
	if err := <-invoked; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager(2 * time.Second)
	resources := []Resource{"a", "b", "c", "d"}
	var counter [4]int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(tx TxID) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ri := int(tx+TxID(i)) % len(resources)
				// Always lock in a globally consistent order (single
				// resource here) so only timeouts, not deadlocks, can occur.
				if err := m.Acquire(tx, resources[ri], ModeX); err != nil {
					t.Errorf("tx %d: %v", tx, err)
					return
				}
				counter[ri]++
				m.ReleaseAll(tx)
			}
		}(TxID(100 + g))
	}
	wg.Wait()
	var total int64
	for _, c := range counter {
		total += c
	}
	if total != 16*50 {
		t.Errorf("critical sections executed %d times, want %d (mutual exclusion broken)", total, 16*50)
	}
}
