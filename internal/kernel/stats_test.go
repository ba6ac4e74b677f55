package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mood/internal/cost"
	"mood/internal/object"
	"mood/internal/stats"
	"mood/internal/storage"
	"mood/internal/vehicledb"
)

// openVehicles opens a database at the given shard count holding the
// vehicle schema populated at cfg.
func openVehicles(t testing.TB, shards int, cfg vehicledb.Config) *DB {
	t.Helper()
	opts := DefaultOptions()
	opts.ShardCount = shards
	return openVehiclesWith(t, opts, cfg)
}

func openVehiclesWith(t testing.TB, opts Options, cfg vehicledb.Config) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := vehicledb.DefineSchema(db.Cat); err != nil {
		t.Fatal(err)
	}
	if _, err := vehicledb.Populate(db.Cat, cfg); err != nil {
		t.Fatal(err)
	}
	return db
}

// collectFull is a from-scratch stats.Collect with the kernel's cost knobs
// applied: what db.Stats must equal whenever the database is quiescent.
func collectFull(t testing.TB, db *DB) *cost.Stats {
	t.Helper()
	want, err := stats.Collect(db.Cat, db.costDisk())
	if err != nil {
		t.Fatal(err)
	}
	db.applyCostKnobs(want)
	return want
}

func checkStats(t testing.TB, db *DB, step string) {
	t.Helper()
	got, err := db.Stats()
	if err != nil {
		t.Fatalf("%s: Stats: %v", step, err)
	}
	if want := collectFull(t, db); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: statistics base differs from a full Collect: %s", step, statsDiff(got, want))
	}
}

// statsDiff names the first entry where two statistics bases differ.
func statsDiff(got, want *cost.Stats) string {
	diff := func(kind string, g, w interface{}) string {
		gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
		keys := map[string]bool{}
		for _, k := range gv.MapKeys() {
			keys[k.String()] = true
		}
		for _, k := range wv.MapKeys() {
			keys[k.String()] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			gx, wx := gv.MapIndex(reflect.ValueOf(k)), wv.MapIndex(reflect.ValueOf(k))
			if !gx.IsValid() || !wx.IsValid() || !reflect.DeepEqual(gx.Interface(), wx.Interface()) {
				return fmt.Sprintf("%s %s: got %+v, want %+v", kind, k, gx, wx)
			}
		}
		return ""
	}
	if d := diff("class", got.Classes, want.Classes); d != "" {
		return d
	}
	if d := diff("link", got.Links, want.Links); d != "" {
		return d
	}
	if d := diff("attr", got.Attrs, want.Attrs); d != "" {
		return d
	}
	return fmt.Sprintf("knobs: got %+v, want %+v", *got, *want)
}

// liveOIDs lists a class's direct extent.
func liveOIDs(t testing.TB, db *DB, class string) []storage.OID {
	t.Helper()
	var out []storage.OID
	if err := db.Cat.ScanExtent(class, func(oid storage.OID, _ object.Value) bool {
		out = append(out, oid)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

var vehicleFamily = []string{"Vehicle", "Automobile", "JapaneseAuto"}

// defineFleets adds Fleet and its subclass Convoy: a set-of-reference, a
// list-of-reference and a set-of-string attribute.
func defineFleets(t testing.TB, db *DB) {
	t.Helper()
	fleet := object.TupleOf(
		object.Field{Name: "members", Type: object.SetOf(object.RefTo("Vehicle"))},
		object.Field{Name: "route", Type: object.ListOf(object.RefTo("Company"))},
		object.Field{Name: "tags", Type: object.SetOf(object.TString)},
	)
	if _, err := db.Cat.DefineClass("Fleet", fleet, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Cat.DefineClass("Convoy", object.TupleOf(), []string{"Fleet"}, nil); err != nil {
		t.Fatal(err)
	}
}

// commitUpdate sets one attribute of an object in a committed transaction.
func commitUpdate(t testing.TB, db *DB, oid storage.OID, attr string, val object.Value) {
	t.Helper()
	tx := db.Begin()
	v, _, err := tx.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	v = v.Clone()
	v.SetField(attr, val)
	if err := tx.Update(oid, v); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// extremeHolder returns the object of the class's closure holding the
// largest (or smallest) value of an integer attribute.
func extremeHolder(t testing.TB, db *DB, class, attr string, largest bool) storage.OID {
	t.Helper()
	var best storage.OID
	var bestVal int64
	if err := db.Cat.ScanClosure(class, nil, func(oid storage.OID, v object.Value) bool {
		f, _ := v.Field(attr)
		if n, ok := f.AsInt(); ok && (best.IsNil() || largest && n > bestVal || !largest && n < bestVal) {
			best, bestVal = oid, n
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if best.IsNil() {
		t.Fatalf("no %s.%s value", class, attr)
	}
	return best
}

// TestStatsBaseDifferential runs seeded random sequences of transactional
// creates, updates and deletes (committed and aborted) and autocommit
// NEW/UPDATE/DELETE over the vehicle schema — the JapaneseAuto → Automobile
// → Vehicle chain, reference re-targeting, set and list-of-reference
// attributes (Fleet, Convoy), and creates and deletes in the referenced
// classes so that |D| moves — and checks after every step that the
// incrementally maintained base equals a full re-collection. Fixed steps
// follow: updates across a varint length boundary, deletes of the current
// max and min holders, a subclass write feeding a superclass attribute,
// and writes after Recover.
func TestStatsBaseDifferential(t *testing.T) {
	cfg := vehicledb.Config{
		Vehicles: 48, DriveTrains: 24, Engines: 24, Companies: 60, Employees: 8,
		Seed: 3, Subclasses: true,
	}
	classes := append([]string{"VehicleEngine", "VehicleDriveTrain", "Employee", "Company", "Fleet", "Convoy"}, vehicleFamily...)
	for _, shards := range []int{1, 2} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				db := openVehicles(t, shards, cfg)
				defineFleets(t, db)
				rng := rand.New(rand.NewSource(seed))
				// pick returns a live object of the class, now and then nil.
				pick := func(class string) storage.OID {
					pool := liveOIDs(t, db, class)
					if len(pool) == 0 || rng.Intn(8) == 0 {
						return storage.NilOID
					}
					return pool[rng.Intn(len(pool))]
				}
				nextID := int32(10000)
				value := func(class string) object.Value {
					nextID++
					switch class {
					case "VehicleEngine":
						return object.NewTuple([]string{"size", "cylinders"},
							[]object.Value{object.NewInt(int32(rng.Intn(5000))), object.NewInt(int32(2 + 2*rng.Intn(20)))})
					case "VehicleDriveTrain":
						return object.NewTuple([]string{"engine", "transmission"},
							[]object.Value{object.NewRef(pick("VehicleEngine")), object.NewString(vehicledb.Transmissions[rng.Intn(4)])})
					case "Employee":
						return object.NewTuple([]string{"ssno", "name", "age"},
							[]object.Value{object.NewInt(nextID), object.NewString(fmt.Sprintf("e%d", nextID)), object.NewInt(int32(20 + rng.Intn(50)))})
					case "Company":
						return object.NewTuple([]string{"name", "location", "president"},
							[]object.Value{object.NewString(fmt.Sprintf("c%d", nextID)), object.NewString(fmt.Sprintf("l%d", rng.Intn(7))), object.NewRef(pick("Employee"))})
					case "Fleet", "Convoy":
						// The list may repeat a company and hold nil references.
						var members, route, tags []object.Value
						for i := rng.Intn(4); i > 0; i-- {
							members = append(members, object.NewRef(pick("Vehicle")))
							route = append(route, object.NewRef(pick("Company")))
							tags = append(tags, object.NewString(fmt.Sprintf("t%d", rng.Intn(5))))
						}
						if len(route) > 0 && rng.Intn(2) == 0 {
							route = append(route, route[0])
						}
						return object.NewTuple([]string{"members", "route", "tags"},
							[]object.Value{object.NewSet(members...), object.NewList(route...), object.NewSet(tags...)})
					}
					return object.NewTuple([]string{"id", "weight", "drivetrain", "manufacturer"},
						[]object.Value{object.NewInt(nextID), object.NewInt(int32(rng.Intn(4000))),
							object.NewRef(pick("VehicleDriveTrain")), object.NewRef(pick("Company"))})
				}
				// mutate changes one attribute of v: an atomic value, a
				// re-targeted reference, or a null.
				mutate := func(class string, v object.Value) object.Value {
					nv := value(class)
					names := nv.Names
					name := names[rng.Intn(len(names))]
					f, _ := nv.Field(name)
					if rng.Intn(6) == 0 {
						f = object.Null
					}
					out := v.Clone()
					out.SetField(name, f)
					return out
				}
				autocommit := func() string {
					switch rng.Intn(6) {
					case 0:
						return fmt.Sprintf("new VehicleEngine <%d, %d>", rng.Intn(5000), 2+2*rng.Intn(20))
					case 1:
						nextID++
						return fmt.Sprintf("new Company <'n%d', 'l%d'>", nextID, rng.Intn(7))
					case 2:
						return fmt.Sprintf("UPDATE %s v SET weight = %d WHERE v.id < %d",
							vehicleFamily[rng.Intn(3)], rng.Intn(4000), rng.Intn(cfg.Vehicles))
					case 3:
						return fmt.Sprintf("UPDATE Company c SET location = 'm%d' WHERE c.location = 'l%d'", rng.Intn(3), rng.Intn(7))
					case 4:
						return fmt.Sprintf("DELETE FROM Company c WHERE c.location = 'l%d'", rng.Intn(40))
					}
					return fmt.Sprintf("DELETE FROM EVERY Vehicle v WHERE v.id = %d", rng.Intn(cfg.Vehicles))
				}
				checkStats(t, db, "populated")
				for step := 0; step < 40; step++ {
					if rng.Intn(3) == 0 {
						stmt := autocommit()
						if _, err := db.Execute(stmt); err != nil {
							t.Fatalf("step %d: %s: %v", step, stmt, err)
						}
						checkStats(t, db, fmt.Sprintf("step %d: %s", step, stmt))
						continue
					}
					tx := db.Begin()
					ops := 1 + rng.Intn(4)
					for op := 0; op < ops; op++ {
						class := classes[rng.Intn(len(classes))]
						what := fmt.Sprintf("step %d op %d on %s", step, op, class)
						live := liveOIDs(t, db, class)
						var err error
						switch k := rng.Intn(4); {
						case k == 0 || len(live) == 0:
							_, err = tx.Create(class, value(class))
						case k == 1:
							err = tx.Delete(live[rng.Intn(len(live))])
						default:
							oid := live[rng.Intn(len(live))]
							var v object.Value
							if v, _, err = tx.Get(oid); err == nil {
								err = tx.Update(oid, mutate(class, v))
							}
						}
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						checkStats(t, db, what)
					}
					if rng.Intn(3) == 0 {
						if err := tx.Abort(); err != nil {
							t.Fatal(err)
						}
						checkStats(t, db, fmt.Sprintf("step %d abort", step))
					} else {
						if err := tx.Commit(); err != nil {
							t.Fatal(err)
						}
						checkStats(t, db, fmt.Sprintf("step %d commit", step))
					}
				}

				// Record lengths across a varint boundary: zigzag 63 and
				// 64 encode in one and two bytes, a 127- and a 128-byte
				// string carry a one- and a two-byte length.
				veh := liveOIDs(t, db, "Vehicle")[0]
				for _, w := range []int32{63, 64, 63, 1 << 20} {
					commitUpdate(t, db, veh, "weight", object.NewInt(w))
					checkStats(t, db, fmt.Sprintf("weight %d", w))
				}
				tx := db.Begin()
				fleet, err := tx.Create("Fleet", object.NewTuple([]string{"tags"}, []object.Value{object.NewSet()}))
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{127, 128, 127} {
					commitUpdate(t, db, fleet, "tags", object.NewSet(object.NewString(strings.Repeat("x", n))))
					checkStats(t, db, fmt.Sprintf("a fleet tag of %d bytes", n))
				}
				// Delete the holders of the current extremes, then write
				// a new maximum through a subclass.
				for _, largest := range []bool{true, false, true} {
					tx := db.Begin()
					if err := tx.Delete(extremeHolder(t, db, "Vehicle", "weight", largest)); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					checkStats(t, db, fmt.Sprintf("deleted the weight extreme (largest %v)", largest))
				}
				if japanese := liveOIDs(t, db, "JapaneseAuto"); len(japanese) > 0 {
					commitUpdate(t, db, japanese[0], "weight", object.NewInt(1<<21))
					checkStats(t, db, "JapaneseAuto weight above every Vehicle")
					if st, _ := db.Stats(); st.Attrs["Vehicle.weight"].Max != 1<<21 {
						t.Errorf("max(Vehicle.weight) = %v after a JapaneseAuto wrote %d", st.Attrs["Vehicle.weight"].Max, 1<<21)
					}
				}
				// Recover drops the base; the entries count again from a
				// full scan and start tracking on the next writes.
				if _, err := db.Recover(); err != nil {
					t.Fatal(err)
				}
				checkStats(t, db, "after Recover")
				veh = liveOIDs(t, db, "Vehicle")[0]
				for step := 0; step < 3; step++ {
					commitUpdate(t, db, veh, "weight", object.NewInt(int32(step)))
					if _, err := db.Execute(fmt.Sprintf("new VehicleEngine <%d, 6>", 7000+step)); err != nil {
						t.Fatal(err)
					}
					checkStats(t, db, fmt.Sprintf("write %d after Recover", step))
				}
			})
		}
	}
}

// TestStatsBaseAfterReorganize: Reorganize drops the base (it moves pages
// under every extent); the entries of the classes written before it are
// built again from scans and then kept by deltas.
func TestStatsBaseAfterReorganize(t *testing.T) {
	db := buildClusterVehicleDB(t, 1, 0)
	veh := liveOIDs(t, db, "Vehicle")
	commitUpdate(t, db, veh[0], "weight", object.NewInt(7))
	checkStats(t, db, "tracked before Reorganize")
	for _, sq := range goldenShardQueries {
		if _, err := db.Execute(sq.q); err != nil {
			t.Fatalf("%q: %v", sq.q, err)
		}
	}
	rs, err := db.Reorganize()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Moved == 0 {
		t.Fatal("precondition: Reorganize moved nothing")
	}
	checkStats(t, db, "after Reorganize")
	for i := 0; i < 3; i++ {
		commitUpdate(t, db, veh[i], "weight", object.NewInt(int32(5000+i)))
		if _, err := db.Execute(fmt.Sprintf("new VehicleEngine <%d, 4>", i)); err != nil {
			t.Fatal(err)
		}
		checkStats(t, db, fmt.Sprintf("write %d after Reorganize", i))
	}
}

// TestStatsBaseRescansOnlyWrittenClasses: the first commit that writes only
// Vehicles makes the next Stats decode the Vehicle closure once and nothing
// of the far larger Company extent; after a second such commit the Vehicle
// entry is kept by deltas and Stats decodes nothing at all. With nothing
// written since, Stats returns the same base without allocating.
func TestStatsBaseRescansOnlyWrittenClasses(t *testing.T) {
	db := openVehicles(t, 1, vehicledb.Config{
		Vehicles: 200, DriveTrains: 100, Engines: 100, Companies: 2000, Employees: 10,
		Seed: 1, Subclasses: true,
	})
	if err := db.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	auto := liveOIDs(t, db, "Automobile")[0]
	commitUpdate(t, db, auto, "weight", object.NewInt(4321))
	u0 := object.Unmarshals()
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	decoded := object.Unmarshals() - u0
	company, _ := db.Cat.ExtentCount("Company")
	closure := 0
	for _, c := range vehicleFamily {
		n, _ := db.Cat.ExtentCount(c)
		closure += n
	}
	if decoded >= int64(company) || decoded < int64(closure) {
		t.Errorf("re-collection after a Vehicle-only commit decoded %d objects; want the Vehicle closure's %d (|Company| = %d)",
			decoded, closure, company)
	}
	if got := st.Attrs["Vehicle.weight"].Max; got < 4321 {
		t.Errorf("max(Vehicle.weight) = %v after writing 4321", got)
	}
	checkStats(t, db, "after the Vehicle commit")

	commitUpdate(t, db, auto, "weight", object.NewInt(4322))
	u0 = object.Unmarshals()
	if st, err = db.Stats(); err != nil {
		t.Fatal(err)
	}
	if decoded := object.Unmarshals() - u0; decoded != 0 {
		t.Errorf("Stats after a second Vehicle-only commit decoded %d objects; want 0 (the entry is kept by deltas)", decoded)
	}
	if got := st.Attrs["Vehicle.weight"].Max; got < 4322 {
		t.Errorf("max(Vehicle.weight) = %v after writing 4322", got)
	}
	checkStats(t, db, "after the second Vehicle commit")
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.Stats(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("clean Stats allocates %v times per call", allocs)
	}
	again, _ := db.Stats()
	if again != st {
		t.Error("clean Stats returned a different base")
	}
}

// TestStatsBaseDDLAndReadOnly: read-only commits and aborts of transactions
// that wrote nothing keep the base; a class definition replaces it.
func TestStatsBaseDDLAndReadOnly(t *testing.T) {
	db := openVehicles(t, 1, vehicledb.Config{
		Vehicles: 20, DriveTrains: 10, Engines: 10, Companies: 30, Employees: 4, Seed: 1,
	})
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, _, err := tx.Get(liveOIDs(t, db, "Vehicle")[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin().Abort(); err != nil {
		t.Fatal(err)
	}
	if again, _ := db.Stats(); again != st {
		t.Error("a read-only commit or an empty abort replaced the statistics base")
	}
	if _, err := db.Execute("CREATE CLASS Truck INHERITS FROM Vehicle"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute("new Truck <1, 2000>"); err != nil {
		t.Fatal(err)
	}
	checkStats(t, db, "after CREATE CLASS")
	st, err = db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Classes["Truck"]; !ok {
		t.Error("the base does not cover a class defined after it was built")
	}
}

// TestRecoverDropsStatsBase: a loser transaction's page-image-logged write
// that a re-collection saw is rolled back by Recover, which moves no class's
// mutation counter — so Recover must drop the base.
func TestRecoverDropsStatsBase(t *testing.T) {
	db := openVehicles(t, 1, vehicledb.Config{
		Vehicles: 20, DriveTrains: 10, Engines: 10, Companies: 30, Employees: 4, Seed: 1,
	})
	oid := liveOIDs(t, db, "Vehicle")[0]
	v, class, err := db.Cat.GetObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Cat.TypeID(class)
	if err != nil {
		t.Fatal(err)
	}
	v = v.Clone()
	v.SetField("weight", object.NewInt(99999))

	// The loser: rewrite the record in place under a WAL transaction that
	// never commits, logging the page's before and after images. The page
	// record is the store's tag byte, the uvarint class id (< 128 here) and
	// the encoded value.
	sh := db.Shards[0]
	pg, err := sh.Pool.Fetch(oid.Page())
	if err != nil {
		t.Fatal(err)
	}
	old, err := pg.Get(oid.Slot())
	if err != nil {
		t.Fatal(err)
	}
	rec := object.Encode([]byte{old[0], byte(id)}, v)
	before := append([]byte(nil), pg.Bytes()...)
	if err := pg.Update(oid.Slot(), rec); err != nil {
		t.Fatal(err)
	}
	loser := sh.Log.Begin()
	lsn, err := sh.Log.Update(loser, pg.ID, 0, before, append([]byte(nil), pg.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	pg.SetLSN(uint32(lsn))
	if err := sh.Pool.Unpin(pg.ID, true); err != nil {
		t.Fatal(err)
	}
	// Another commit's force makes the loser's record durable, so the
	// crash leaves it for recovery to undo.
	sh.Log.Flush(lsn)
	if err := db.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	if st, _ := db.Stats(); st.Attrs["Vehicle.weight"].Max != 99999 {
		t.Fatalf("precondition: the re-collection did not see the loser's write (max weight %v)", st.Attrs["Vehicle.weight"].Max)
	}
	rs, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Losers != 1 {
		t.Fatalf("recovery found %d losers, want 1", rs.Losers)
	}
	checkStats(t, db, "after Recover")
	if st, _ := db.Stats(); st.Attrs["Vehicle.weight"].Max == 99999 {
		t.Error("the statistics base still describes the rolled-back write")
	}
}

// TestStatsBaseConcurrentWriters races committing and aborting writers
// against a Stats loop, with a class definition and a RefreshStats landing
// mid-stream, so that builds of tracked entries overlap writes to their
// closures. Once the writers stop, the base must equal a full Collect.
func TestStatsBaseConcurrentWriters(t *testing.T) {
	db := openVehicles(t, 1, vehicledb.Config{
		Vehicles: 600, DriveTrains: 60, Engines: 60, Companies: 200, Employees: 10,
		Seed: 2, Subclasses: true,
	})
	if err := db.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	const writers, txns = 3, 150
	// Each writer updates only the vehicles it owns and deletes only what
	// it created, so the writers never wait on each other's locks.
	var owned [writers][]storage.OID
	for _, class := range vehicleFamily {
		for i, oid := range liveOIDs(t, db, class) {
			owned[i%writers] = append(owned[i%writers], oid)
		}
	}
	var refreshed atomic.Bool
	errs := make(chan error, writers+2) // each goroutine sends at most once
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var created []storage.OID
			// Keep writing past the last refresh, so the final state is
			// the deltas' and not a scan's.
			for i := 0; i < txns || !refreshed.Load(); i++ {
				tx := db.Begin()
				err := func() error {
					oid := owned[w][rng.Intn(len(owned[w]))]
					v, _, err := tx.Get(oid)
					if err != nil {
						return err
					}
					v = v.Clone()
					v.SetField("weight", object.NewInt(int32(rng.Intn(5000))))
					if err := tx.Update(oid, v); err != nil {
						return err
					}
					class := vehicleFamily[rng.Intn(len(vehicleFamily))]
					nv := object.NewTuple([]string{"id", "weight"},
						[]object.Value{object.NewInt(int32(100000 + w*1000 + i)), object.NewInt(int32(rng.Intn(9000)))})
					noid, err := tx.Create(class, nv)
					if err != nil {
						return err
					}
					if len(created) > 0 && rng.Intn(2) == 0 {
						victim := created[len(created)-1]
						created = created[:len(created)-1]
						if err := tx.Delete(victim); err != nil {
							return err
						}
					}
					if rng.Intn(3) == 0 {
						return tx.Abort()
					}
					if err := tx.Commit(); err != nil {
						return err
					}
					created = append(created, noid)
					return nil
				}()
				if err != nil {
					errs <- fmt.Errorf("writer %d txn %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := db.Stats(); err != nil {
				errs <- fmt.Errorf("Stats: %w", err)
				return
			}
		}
	}()
	go func() {
		defer bg.Done()
		defer refreshed.Store(true)
		if _, err := db.Execute("CREATE CLASS Truck INHERITS FROM Vehicle"); err != nil {
			errs <- err
			return
		}
		if _, err := db.Execute("new Truck <1, 2000>"); err != nil {
			errs <- err
			return
		}
		// Every refresh drops the tracked entries, so the next writes make
		// Stats build them again while the writers keep writing.
		for i := 0; i < 20; i++ {
			if err := db.RefreshStats(); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(done)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkStats(t, db, "after the concurrent writers")
}
