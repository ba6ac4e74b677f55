package funcmgr

import (
	"errors"
	"testing"

	"mood/internal/catalog"
	"mood/internal/expr"
	"mood/internal/lock"
	"mood/internal/object"
	"mood/internal/storage"
)

func setup(t testing.TB) (*catalog.Catalog, *Manager) {
	t.Helper()
	disk := storage.NewDiskSim(storage.DefaultDiskParams())
	bp := storage.NewBufferPool(disk, 128)
	fm, err := storage.NewFileManager(bp)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.New(storage.NewObjectStore(bp, fm))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Vehicle class with its two methods.
	_, err = cat.DefineClass("Vehicle", object.TupleOf(
		object.Field{Name: "weight", Type: object.TInteger},
	), nil, []*catalog.MethodSig{
		{Name: "lbweight", ReturnType: object.TInteger},
		{Name: "weight", ReturnType: object.TInteger},
		{Name: "scaled", ParamNames: []string{"factor"}, ParamTypes: []*object.Type{object.TInteger}, ReturnType: object.TInteger},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineClass("Automobile", object.TupleOf(), []string{"Vehicle"}, nil); err != nil {
		t.Fatal(err)
	}
	return cat, New(cat, lock.NewManager(0))
}

func lbweightSig(cat *catalog.Catalog, t testing.TB) *catalog.MethodSig {
	t.Helper()
	sig, err := cat.Method("Vehicle", "lbweight")
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// lbweight is the paper's example body: return weight*2.2075 as an int.
func lbweight(inv *Invocation) (object.Value, error) {
	w, _ := inv.Self.Field("weight")
	return object.NewInt(int32(float64(w.Int) * 2.2075)), nil
}

func TestRegisterInvoke(t *testing.T) {
	cat, m := setup(t)
	sig := lbweightSig(cat, t)
	if m.Registered(sig) {
		t.Error("function registered before Register")
	}
	if err := m.Register(sig, lbweight); err != nil {
		t.Fatal(err)
	}
	self := object.NewTuple([]string{"weight"}, []object.Value{object.NewInt(1000)})
	out, err := m.Invoke("Vehicle", "lbweight", &Invocation{Self: self})
	if err != nil {
		t.Fatal(err)
	}
	if out.Int != 2207 {
		t.Errorf("lbweight(1000) = %d, want 2207", out.Int)
	}
	comp, loads, invs := m.Stats()
	if comp != 1 || loads != 1 || invs != 1 {
		t.Errorf("stats = %d/%d/%d", comp, loads, invs)
	}
	// Second invocation: no new load (kept in memory).
	m.Invoke("Vehicle", "lbweight", &Invocation{Self: self})
	_, loads, _ = m.Stats()
	if loads != 1 {
		t.Errorf("loads = %d after second call, want 1", loads)
	}
	// Scope close unloads; next call reloads.
	m.CloseScope()
	m.Invoke("Vehicle", "lbweight", &Invocation{Self: self})
	_, loads, _ = m.Stats()
	if loads != 2 {
		t.Errorf("loads = %d after scope change, want 2", loads)
	}
}

func TestLateBindingThroughHierarchy(t *testing.T) {
	cat, m := setup(t)
	if err := m.Register(lbweightSig(cat, t), lbweight); err != nil {
		t.Fatal(err)
	}
	// Invoke on the subclass: resolution walks up to Vehicle::lbweight.
	self := object.NewTuple([]string{"weight"}, []object.Value{object.NewInt(2000)})
	out, err := m.Invoke("Automobile", "lbweight", &Invocation{Self: self})
	if err != nil {
		t.Fatal(err)
	}
	if out.Int != 4415 {
		t.Errorf("Automobile lbweight = %d", out.Int)
	}
}

func TestUpdateChangesBehaviourWithoutRestart(t *testing.T) {
	cat, m := setup(t)
	sig := lbweightSig(cat, t)
	m.Register(sig, lbweight)
	self := object.NewTuple([]string{"weight"}, []object.Value{object.NewInt(100)})
	before, _ := m.Invoke("Vehicle", "lbweight", &Invocation{Self: self})
	// Rewrite the function at run time: this is the paper's headline
	// capability — "adding a new function to the system has no effect on
	// the server program".
	if err := m.Update(sig, func(inv *Invocation) (object.Value, error) {
		w, _ := inv.Self.Field("weight")
		return object.NewInt(int32(w.Int * 2)), nil
	}); err != nil {
		t.Fatal(err)
	}
	after, _ := m.Invoke("Vehicle", "lbweight", &Invocation{Self: self})
	if before.Int == after.Int {
		t.Error("update did not change behaviour")
	}
	if after.Int != 200 {
		t.Errorf("after update = %d", after.Int)
	}
}

func TestDelete(t *testing.T) {
	cat, m := setup(t)
	sig := lbweightSig(cat, t)
	m.Register(sig, lbweight)
	if err := m.Delete(sig); err != nil {
		t.Fatal(err)
	}
	_, err := m.Invoke("Vehicle", "lbweight", &Invocation{Self: object.Null})
	if !errors.Is(err, ErrNoSuchFunction) {
		t.Errorf("invoke after delete = %v", err)
	}
	if err := m.Delete(sig); !errors.Is(err, ErrNoSuchFunction) {
		t.Errorf("double delete = %v", err)
	}
	if err := m.Update(sig, lbweight); !errors.Is(err, ErrNoSuchFunction) {
		t.Errorf("update of deleted = %v", err)
	}
}

func TestParametersAndArity(t *testing.T) {
	cat, m := setup(t)
	sig, err := cat.Method("Vehicle", "scaled")
	if err != nil {
		t.Fatal(err)
	}
	m.Register(sig, func(inv *Invocation) (object.Value, error) {
		w, _ := inv.Self.Field("weight")
		return object.NewInt(int32(w.Int * inv.Arg(0).Int)), nil
	})
	self := object.NewTuple([]string{"weight"}, []object.Value{object.NewInt(10)})
	out, err := m.Invoke("Vehicle", "scaled", &Invocation{Self: self, Args: []object.Value{object.NewInt(3)}})
	if err != nil || out.Int != 30 {
		t.Errorf("scaled = %v %v", out, err)
	}
	if _, err := m.Invoke("Vehicle", "scaled", &Invocation{Self: self}); !errors.Is(err, ErrBadArity) {
		t.Errorf("missing arg = %v", err)
	}
	// Ill-typed argument rejected.
	if _, err := m.Invoke("Vehicle", "scaled", &Invocation{Self: self, Args: []object.Value{object.NewString("x")}}); err == nil {
		t.Error("mistyped argument accepted")
	}
}

func TestExceptionHandling(t *testing.T) {
	cat, m := setup(t)
	sig := lbweightSig(cat, t)
	m.Register(sig, func(*Invocation) (object.Value, error) {
		var p *int
		_ = *p // segfault inside the "compiled" function
		return object.Null, nil
	})
	_, err := m.Invoke("Vehicle", "lbweight", &Invocation{Self: object.Null})
	if err == nil {
		t.Fatal("panic escaped the Exception handler")
	}
}

func TestReturnTypeChecked(t *testing.T) {
	cat, m := setup(t)
	sig := lbweightSig(cat, t)
	m.Register(sig, func(*Invocation) (object.Value, error) {
		return object.NewString("not an int"), nil
	})
	if _, err := m.Invoke("Vehicle", "lbweight", &Invocation{Self: object.Null}); err == nil {
		t.Error("ill-typed return accepted")
	}
}

func TestRegisterUndeclared(t *testing.T) {
	_, m := setup(t)
	bad := &catalog.MethodSig{Class: "Vehicle", Name: "undeclared", ReturnType: object.TInteger}
	if err := m.Register(bad, lbweight); err == nil {
		t.Error("undeclared method registered")
	}
}

// TestQueryRegistryBounded: every distinct literal is a fragment of its own,
// yet resolving ten times the registry's capacity keeps it within capacity,
// and every resolved predicate, recompiled after its drop or not, still
// evaluates correctly.
func TestQueryRegistryBounded(t *testing.T) {
	r := NewQueryRegistry()
	const capacity = 2 * queryGeneration
	eq := func(n int) expr.Expr {
		return &expr.Cmp{Op: expr.OpEq, L: expr.Path("v", "weight"), R: &expr.Const{Val: object.NewInt(int32(n))}}
	}
	check := func(n int) {
		t.Helper()
		fn, attrs := r.Predicate("v", eq(n))
		if fn == nil {
			t.Fatalf("v.weight = %d did not lower", n)
		}
		if len(attrs) != 1 || attrs[0] != "weight" {
			t.Fatalf("v.weight = %d reads attributes %q, want [weight]", n, attrs)
		}
		for _, w := range []int{n, n + 1} {
			v := object.NewTuple([]string{"weight"}, []object.Value{object.NewInt(int32(w))})
			got, err := fn(&v, storage.NilOID, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != (w == n) {
				t.Fatalf("v.weight = %d on weight %d: %v", n, w, got)
			}
		}
	}
	for n := 0; n < 10*capacity; n++ {
		check(n)
		check(n / 2) // an older literal again: kept, moved back or recompiled
		if size := len(r.fns) + len(r.old); size > capacity {
			t.Fatalf("after %d literals the registry holds %d fragments, capacity %d", n+1, size, capacity)
		}
	}
	compilations, _, _ := r.QueryStats()
	if compilations < 10*capacity {
		t.Errorf("%d compilations for %d distinct literals", compilations, 10*capacity)
	}
	// A fragment resolved in every generation is never dropped.
	before, _, _ := r.QueryStats()
	for n := 0; n < 3*capacity; n++ {
		check(-1)
		check(10*capacity + n)
	}
	if after, _, _ := r.QueryStats(); after-before != 3*capacity+1 {
		t.Errorf("%d compilations, want %d: the hot fragment was recompiled", after-before, 3*capacity+1)
	}
}
