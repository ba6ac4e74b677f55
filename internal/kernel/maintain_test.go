package kernel

import (
	"sync"
	"testing"

	"mood/internal/object"
	"mood/internal/vehicledb"
)

// TestIndexKeyUpdateBesidePlanning: a writer whose updates change an
// indexed key (deleting and inserting B-tree entries, splitting leaves)
// runs beside sessions planning queries on that index, which read the
// tree's Table 9 counters. Under -race this pins that those counters are
// safe to read concurrently.
func TestIndexKeyUpdateBesidePlanning(t *testing.T) {
	db := openVehicles(t, 1, vehicledb.Config{
		Vehicles: 20, DriveTrains: 10, Engines: 200, Companies: 20, Employees: 4, Seed: 1,
	})
	if _, err := db.Execute("CREATE INDEX esize ON VehicleEngine(size)"); err != nil {
		t.Fatal(err)
	}
	engines := liveOIDs(t, db, "VehicleEngine")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Execute("EXPLAIN SELECT e FROM VehicleEngine e WHERE e.size = 1500"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		oid := engines[i%len(engines)]
		tx := db.Begin()
		v, _, err := tx.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		v = v.Clone()
		v.SetField("size", object.NewInt(int32(10000+i)))
		if err := tx.Update(oid, v); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	ix := db.Cat.IndexOn("VehicleEngine", "size")
	if n := ix.BTree().Len(); n != len(engines) {
		t.Errorf("index holds %d entries for %d engines", n, len(engines))
	}
	for i := 300 - len(engines); i < 300; i++ {
		got, err := ix.Lookup(object.NewInt(int32(10000 + i)))
		if err != nil || len(got) != 1 || got[0] != engines[i%len(engines)] {
			t.Fatalf("size %d: index returns %v, %v", 10000+i, got, err)
		}
	}
}

// TestUnchangedReferenceSkipsJoinIndexLog: an update that leaves a join
// index's reference alone commits with one log force, not two; one that
// re-targets it still maintains the index under its own micro-transaction.
func TestUnchangedReferenceSkipsJoinIndexLog(t *testing.T) {
	db := openVehicles(t, 1, vehicledb.Config{
		Vehicles: 20, DriveTrains: 10, Engines: 10, Companies: 20, Employees: 4, Seed: 1,
	})
	ix, err := db.BuildBJI("vm", "Vehicle", "manufacturer")
	if err != nil {
		t.Fatal(err)
	}
	vehicles := liveOIDs(t, db, "Vehicle")
	companies := liveOIDs(t, db, "Company")
	update := func(attr string, val object.Value) int64 {
		t.Helper()
		f0 := db.Log.FlushCount()
		tx := db.Begin()
		v, _, err := tx.Get(vehicles[0])
		if err != nil {
			t.Fatal(err)
		}
		v = v.Clone()
		v.SetField(attr, val)
		if err := tx.Update(vehicles[0], v); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return db.Log.FlushCount() - f0
	}
	if n := update("weight", object.NewInt(1234)); n != 1 {
		t.Errorf("an update leaving manufacturer alone forced the log %d times, want 1", n)
	}
	target := companies[len(companies)-1]
	if n := update("manufacturer", object.NewRef(target)); n != 2 {
		t.Errorf("an update re-targeting manufacturer forced the log %d times, want 2", n)
	}
	if got, err := ix.Forward(vehicles[0]); err != nil || len(got) != 1 || got[0] != target {
		t.Errorf("join index after re-targeting: %v, %v; want [%s]", got, err, target)
	}
}
