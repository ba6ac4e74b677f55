package kernel

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"mood/internal/lock"
	"mood/internal/object"
	"mood/internal/storage"
	"mood/internal/vehicledb"
)

func employee(name string, ssno int32) object.Value {
	return object.NewTuple(
		[]string{"ssno", "name", "age"},
		[]object.Value{object.NewInt(ssno), object.NewString(name), object.NewInt(30)})
}

func countEmployees(t *testing.T, db *DB) int {
	t.Helper()
	n := 0
	if err := db.Cat.ScanExtent("Employee", func(storage.OID, object.Value) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTxCommit(t *testing.T) {
	db := openAndDefine(t)
	tx := db.Begin()
	oid, err := tx.Create("Employee", employee("alice", 1))
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := tx.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	v.SetField("age", object.NewInt(31))
	if err := tx.Update(oid, v); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _, err := db.Cat.GetObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if age, _ := got.Field("age"); age.Int != 31 {
		t.Errorf("age = %d", age.Int)
	}
	// Commit forced the log.
	if db.Log.FlushedLSN() == 0 {
		t.Error("commit did not force the log")
	}
	// Finished transactions reject reuse.
	if _, err := tx.Create("Employee", employee("x", 2)); !errors.Is(err, ErrTxDone) {
		t.Errorf("reuse after commit = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit = %v", err)
	}
}

func TestTxAbortUndoesEverything(t *testing.T) {
	db := openAndDefine(t)
	// Pre-existing committed state.
	setup := db.Begin()
	keep, err := setup.Create("Employee", employee("keep", 1))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := setup.Create("Employee", employee("victim", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if _, err := tx.Create("Employee", employee("ghost", 3)); err != nil {
		t.Fatal(err)
	}
	v, _, _ := tx.Get(keep)
	v.SetField("name", object.NewString("mangled"))
	if err := tx.Update(keep, v); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	// Created object gone, update reverted, deleted object's value back.
	if n := countEmployees(t, db); n != 2 {
		t.Errorf("employees after abort = %d, want 2", n)
	}
	kv, _, err := db.Cat.GetObject(keep)
	if err != nil {
		t.Fatal(err)
	}
	if name, _ := kv.Field("name"); name.Str != "keep" {
		t.Errorf("update not undone: %s", name.Str)
	}
	found := false
	db.Cat.ScanExtent("Employee", func(_ storage.OID, v object.Value) bool {
		if name, _ := v.Field("name"); name.Str == "victim" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("deleted object not reinserted on abort")
	}
}

// TestTxAbortAfterDeleteOfOwnWrite: a transaction that creates or updates
// an object and then deletes it aborts cleanly. The delete's undo
// resurrects the object under a new OID (on two shards often in the other
// shard), so the undo of the earlier create or update must act on that OID.
func TestTxAbortAfterDeleteOfOwnWrite(t *testing.T) {
	db := openVehicles(t, 2, vehicledb.Config{
		Vehicles: 4, DriveTrains: 2, Engines: 2, Companies: 4, Employees: 4, Seed: 1,
	})
	want := map[string]bool{}
	for _, oid := range liveOIDs(t, db, "Employee") {
		v, _, err := db.Cat.GetObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		want[v.String()] = true
	}
	for round := 0; round < 4; round++ {
		tx := db.Begin()
		ghost, err := tx.Create("Employee", employee("ghost", int32(100+round)))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(ghost); err != nil {
			t.Fatal(err)
		}
		kept := liveOIDs(t, db, "Employee")[round]
		v, _, err := tx.Get(kept)
		if err != nil {
			t.Fatal(err)
		}
		v = v.Clone()
		v.SetField("name", object.NewString("mangled"))
		if err := tx.Update(kept, v); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(kept); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := map[string]bool{}
		for _, oid := range liveOIDs(t, db, "Employee") {
			v, _, err := db.Cat.GetObject(oid)
			if err != nil {
				t.Fatal(err)
			}
			got[v.String()] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: employees after abort %v, want %v", round, got, want)
		}
	}
}

func TestTxIsolationWriteWrite(t *testing.T) {
	db := openAndDefine(t)
	setup := db.Begin()
	oid, err := setup.Create("Employee", employee("shared", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	t1 := db.Begin()
	v, _, err := t1.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	v.SetField("age", object.NewInt(40))
	if err := t1.Update(oid, v); err != nil {
		t.Fatal(err)
	}

	// A second writer blocks until t1 finishes (strict 2PL).
	var wg sync.WaitGroup
	wg.Add(1)
	committed := make(chan struct{})
	go func() {
		defer wg.Done()
		t2 := db.Begin()
		v2, _, err := t2.Get(oid) // S lock blocks on t1's X
		if err != nil {
			t.Error(err)
			return
		}
		select {
		case <-committed:
		default:
			t.Error("t2 read before t1 committed")
		}
		if age, _ := v2.Field("age"); age.Int != 40 {
			t.Errorf("t2 saw age %d, want t1's committed 40", age.Int)
		}
		t2.Commit()
	}()
	time.Sleep(30 * time.Millisecond)
	close(committed)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestTxDeadlockVictim(t *testing.T) {
	db := openAndDefine(t)
	setup := db.Begin()
	a, _ := setup.Create("Employee", employee("a", 1))
	bOid, _ := setup.Create("Employee", employee("b", 2))
	setup.Commit()

	t1 := db.Begin()
	t2 := db.Begin()
	v1, _, _ := t1.Get(a)
	if err := t1.Update(a, v1); err != nil {
		t.Fatal(err)
	}
	v2, _, _ := t2.Get(bOid)
	if err := t2.Update(bOid, v2); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, _, err := t1.Get(bOid)
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	go func() {
		_, _, err := t2.Get(a)
		errs <- err
	}()
	var deadlocks int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, lock.ErrDeadlock) {
				deadlocks++
				// Victim aborts, releasing locks and unblocking the peer.
				if deadlocks == 1 {
					if i == 0 {
						// Whichever tx hit the deadlock must abort; we
						// cannot tell which from here, so abort both
						// defensively after the loop.
					}
				}
			}
			if deadlocks == 1 {
				t1.Abort()
				t2.Abort()
			}
		case <-time.After(3 * time.Second):
			t.Fatal("deadlock not detected")
		}
	}
	if deadlocks != 1 {
		t.Errorf("deadlock victims = %d, want 1", deadlocks)
	}
	_, _, dl := db.Locks.Stats()
	if dl != 1 {
		t.Errorf("lock manager deadlocks = %d", dl)
	}
}

func TestTxWALRecords(t *testing.T) {
	db := openAndDefine(t)
	before, forces := db.Log.Len(), db.Log.FlushCount()
	tx := db.Begin()
	oid, err := tx.Create("Employee", employee("logged", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	created := db.Log.Len() - before
	if created < 3 { // begin + update marker + commit
		t.Errorf("log grew by %d records, want >= 3", created)
	}
	if n := db.Log.FlushCount() - forces; n != 1 {
		t.Errorf("a writing commit forced the log %d times, want 1", n)
	}
	if got := db.Log.ActiveTransactions(); len(got) != 0 {
		t.Errorf("active transactions after commit: %v", got)
	}

	// A read-only transaction logs and forces nothing: a single store
	// begins a transaction on its WAL at the first write, as each shard of
	// a sharded store does.
	before, forces = db.Log.Len(), db.Log.FlushCount()
	ro := db.Begin()
	if _, _, err := ro.Get(oid); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, f := db.Log.Len()-before, db.Log.FlushCount()-forces; n != 0 || f != 0 {
		t.Errorf("a read-only commit logged %d records and forced %d times, want 0 and 0", n, f)
	}

	// Autocommit NEW is a one-statement transaction: the records of the
	// transactional create above, and one force.
	before, forces = db.Log.Len(), db.Log.FlushCount()
	if _, err := db.Execute(`new Employee <2, "auto", 30>`); err != nil {
		t.Fatal(err)
	}
	if n, f := db.Log.Len()-before, db.Log.FlushCount()-forces; n != created || f != 1 {
		t.Errorf("autocommit NEW logged %d records and forced %d times, want %d and 1", n, f, created)
	}
}

// TestAutocommitDMLHonorsLocks: an autocommit UPDATE is a one-statement
// transaction under strict 2PL. While a transaction holds X on an object
// it has written, the statement waits for the lock instead of reading the
// uncommitted value; once the transaction aborts, it updates the restored
// value, so the abort loses no write.
func TestAutocommitDMLHonorsLocks(t *testing.T) {
	db := openAndDefine(t)
	setup := db.Begin()
	oid, err := setup.Create("Employee", employee("shared", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	v, _, err := tx.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	v = v.Clone()
	v.SetField("age", object.NewInt(50))
	if err := tx.Update(oid, v); err != nil {
		t.Fatal(err)
	}

	_, waits0, _ := db.Locks.Stats()
	done := make(chan error, 1)
	go func() {
		_, err := db.Execute("UPDATE Employee e SET age = e.age + 1")
		done <- err
	}()
	// Wait until the statement blocks on a lock; finishing first means it
	// ran past the transaction's X lock.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("autocommit UPDATE finished (err %v) while a transaction held X on its target", err)
		default:
		}
		if _, waits, _ := db.Locks.Stats(); waits > waits0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("autocommit UPDATE neither finished nor waited for a lock")
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got, _, err := db.Cat.GetObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if age, _ := got.Field("age"); age.Int != 31 {
		t.Errorf("age = %d after the abort and the autocommit increment, want 31", age.Int)
	}
}

// TestAutocommitDMLIsAtomic: a statement that fails part-way is aborted as
// a whole, so the objects it updated before the failure keep their values.
func TestAutocommitDMLIsAtomic(t *testing.T) {
	db := openAndDefine(t)
	for _, st := range []string{
		`new Employee <1, "one", 30>`,
		`new Employee <2, "two", 30>`,
		`new Employee <3, "three", 30>`,
	} {
		if _, err := db.Execute(st); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Execute("UPDATE Employee e SET age = 60 / (e.ssno - 2)"); err == nil {
		t.Fatal("UPDATE dividing by zero on one target succeeded")
	}
	if err := db.Cat.ScanExtent("Employee", func(_ storage.OID, v object.Value) bool {
		if age, _ := v.Field("age"); age.Int != 30 {
			t.Errorf("employee %v: age %d after the failed UPDATE, want 30", v, age.Int)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n := countEmployees(t, db); n != 3 {
		t.Errorf("%d employees after the failed UPDATE, want 3", n)
	}
}

// TestDMLRechecksWhereUnderLock: UPDATE and DELETE choose their targets on
// an unlocked scan, so a target may be chosen on another transaction's
// uncommitted value. WHERE is evaluated again on the value read under the
// X lock: once that transaction rolls back, the target no longer matches
// and is left alone. Autocommit and in a transaction alike.
func TestDMLRechecksWhereUnderLock(t *testing.T) {
	for _, tc := range []struct {
		name, stmt string
		inTx       bool
	}{
		{"autocommit-update", "UPDATE Employee e SET age = 0 WHERE e.age = 50", false},
		{"tx-update", "UPDATE Employee e SET age = 0 WHERE e.age = 50", true},
		{"autocommit-delete", "DELETE FROM Employee e WHERE e.age = 50", false},
		{"tx-delete", "DELETE FROM Employee e WHERE e.age = 50", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openAndDefine(t)
			setup := db.Begin()
			oid, err := setup.Create("Employee", employee("shared", 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			writer := db.Begin()
			v, _, err := writer.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			v = v.Clone()
			v.SetField("age", object.NewInt(50))
			if err := writer.Update(oid, v); err != nil {
				t.Fatal(err)
			}

			_, waits0, _ := db.Locks.Stats()
			done := make(chan error, 1)
			go func() {
				if !tc.inTx {
					_, err := db.Execute(tc.stmt)
					done <- err
					return
				}
				tx := db.Begin()
				if _, err := db.ExecuteInTx(tx, tc.stmt); err != nil {
					tx.Abort()
					done <- err
					return
				}
				done <- tx.Commit()
			}()
			// The statement chose the object on age 50 and now waits for
			// the writer's X lock.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				select {
				case err := <-done:
					t.Fatalf("statement finished (err %v) while a transaction held X on its target", err)
				default:
				}
				if _, waits, _ := db.Locks.Stats(); waits > waits0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("statement neither finished nor waited for a lock")
				}
			}
			if err := writer.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			got, _, err := db.Cat.GetObject(oid)
			if err != nil {
				t.Fatalf("the employee is gone after the abort: %v", err)
			}
			if age, _ := got.Field("age"); age.Int != 30 {
				t.Errorf("age = %d after the abort, want 30: the statement wrote a target WHERE no longer matched", age.Int)
			}
		})
	}
}
