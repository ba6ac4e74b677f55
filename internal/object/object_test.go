package object

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"mood/internal/storage"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if NewInt(42).Int != 42 || NewInt(42).Kind != KindInteger {
		t.Error("NewInt broken")
	}
	if bt, bf := NewBool(true), NewBool(false); !bt.Bool() || bf.Bool() {
		t.Error("NewBool broken")
	}
	tp := NewTuple([]string{"a", "b"}, []Value{NewInt(1), NewString("x")})
	if f, ok := tp.Field("b"); !ok || f.Str != "x" {
		t.Error("Field lookup broken")
	}
	if _, ok := tp.Field("missing"); ok {
		t.Error("missing field found")
	}
	tp.SetField("a", NewInt(9))
	if f, _ := tp.Field("a"); f.Int != 9 {
		t.Error("SetField replace broken")
	}
	tp.SetField("c", NewBool(true))
	if f, ok := tp.Field("c"); !ok || !f.Bool() {
		t.Error("SetField add broken")
	}
	s := NewSet(NewInt(1), NewInt(2), NewInt(1))
	if s.Len() != 2 {
		t.Errorf("set collapsed to %d, want 2", s.Len())
	}
	if !s.SetContains(NewInt(2)) || s.SetContains(NewInt(3)) {
		t.Error("SetContains broken")
	}
	l := NewList(NewInt(1), NewInt(1))
	if l.Len() != 2 {
		t.Error("list deduplicated")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{NewInt(1), NewInt(2), -1, true},
		{NewInt(2), NewInt(2), 0, true},
		{NewLong(5), NewInt(3), 1, true},
		{NewFloat(1.5), NewInt(2), -1, true},
		{NewInt(2), NewFloat(2.0), 0, true},
		{NewString("abc"), NewString("abd"), -1, true},
		{NewChar('a'), NewChar('b'), -1, true},
		{NewChar('A'), NewInt(65), 0, true},
		{NewBool(false), NewBool(true), -1, true},
		{NewString("a"), NewInt(1), 0, false},
		{NewSet(), NewSet(), 0, false},
	}
	for _, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%s,%s) = %d,%v want %d,%v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestShallowEqual(t *testing.T) {
	oid1 := storage.MakeOID(1, 1, 1)
	oid2 := storage.MakeOID(1, 1, 2)
	if !Equal(NewRef(oid1), NewRef(oid1)) || Equal(NewRef(oid1), NewRef(oid2)) {
		t.Error("reference equality broken")
	}
	// Sets compare order-insensitively.
	a := Value{Kind: KindSet, Elems: []Value{NewInt(1), NewInt(2)}}
	b := Value{Kind: KindSet, Elems: []Value{NewInt(2), NewInt(1)}}
	if !Equal(a, b) {
		t.Error("set order sensitivity")
	}
	// Lists are order-sensitive.
	la := NewList(NewInt(1), NewInt(2))
	lb := NewList(NewInt(2), NewInt(1))
	if Equal(la, lb) {
		t.Error("list order ignored")
	}
	// Tuples compare by field name, not position.
	ta := NewTuple([]string{"x", "y"}, []Value{NewInt(1), NewInt(2)})
	tb := NewTuple([]string{"y", "x"}, []Value{NewInt(2), NewInt(1)})
	if !Equal(ta, tb) {
		t.Error("tuple field-name equality broken")
	}
	if Equal(ta, NewTuple([]string{"x", "y"}, []Value{NewInt(1), NewInt(3)})) {
		t.Error("unequal tuples equal")
	}
	if !Equal(Null, Null) || Equal(Null, NewInt(0)) {
		t.Error("null equality broken")
	}
}

func TestDeepEqualDereferences(t *testing.T) {
	// Two distinct OIDs holding structurally equal objects.
	store := map[storage.OID]Value{
		storage.MakeOID(1, 1, 1): NewTuple([]string{"n"}, []Value{NewInt(7)}),
		storage.MakeOID(1, 1, 2): NewTuple([]string{"n"}, []Value{NewInt(7)}),
		storage.MakeOID(1, 1, 3): NewTuple([]string{"n"}, []Value{NewInt(8)}),
	}
	resolve := func(oid storage.OID) (Value, error) { return store[oid], nil }
	eq, err := DeepEqual(NewRef(storage.MakeOID(1, 1, 1)), NewRef(storage.MakeOID(1, 1, 2)), resolve)
	if err != nil || !eq {
		t.Errorf("deep equal distinct oids: %v %v", eq, err)
	}
	eq, _ = DeepEqual(NewRef(storage.MakeOID(1, 1, 1)), NewRef(storage.MakeOID(1, 1, 3)), resolve)
	if eq {
		t.Error("structurally different objects deep-equal")
	}
}

func TestDeepEqualCycles(t *testing.T) {
	a := storage.MakeOID(1, 1, 1)
	b := storage.MakeOID(1, 1, 2)
	// a -> b -> a and b -> a -> b: equivalent 2-cycles.
	store := map[storage.OID]Value{
		a: NewTuple([]string{"next"}, []Value{NewRef(b)}),
		b: NewTuple([]string{"next"}, []Value{NewRef(a)}),
	}
	resolve := func(oid storage.OID) (Value, error) { return store[oid], nil }
	eq, err := DeepEqual(NewRef(a), NewRef(b), resolve)
	if err != nil {
		t.Fatalf("cycle comparison errored: %v", err)
	}
	if !eq {
		t.Error("equivalent cycles compare unequal")
	}
}

func TestClone(t *testing.T) {
	orig := NewTuple([]string{"s"}, []Value{NewSet(NewInt(1))})
	cp := orig.Clone()
	cp.Fields[0].SetAdd(NewInt(2))
	if orig.Fields[0].Len() != 1 {
		t.Error("Clone shares element storage")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	vals := []Value{
		Null,
		NewInt(0), NewInt(-1), NewInt(math.MaxInt32), NewInt(math.MinInt32),
		NewLong(math.MaxInt64), NewLong(math.MinInt64),
		NewFloat(0), NewFloat(-3.14), NewFloat(math.Inf(1)),
		NewString(""), NewString("hello world"), NewString("ünïcödé"),
		NewChar('x'), NewChar('語'),
		NewBool(true), NewBool(false),
		NewRef(storage.MakeOID(3, 7, 11)), NewRef(storage.NilOID),
		NewSet(NewInt(1), NewString("a")),
		NewList(),
		NewList(NewList(NewInt(1)), NewSet()),
		NewTuple([]string{"id", "refs"}, []Value{
			NewInt(5),
			NewSet(NewRef(storage.MakeOID(1, 2, 3))),
		}),
	}
	for _, v := range vals {
		got, err := Unmarshal(Marshal(v))
		if err != nil {
			t.Fatalf("roundtrip %s: %v", v, err)
		}
		if !Equal(got, v) && !(got.IsNull() && v.IsNull()) {
			t.Errorf("roundtrip %s -> %s", v, got)
		}
	}
	// NaN needs special handling since NaN != NaN via Compare.
	nan, err := Unmarshal(Marshal(NewFloat(math.NaN())))
	if err != nil || !math.IsNaN(nan.Flt) {
		t.Errorf("NaN roundtrip: %v %v", nan, err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},
		{byte(KindFloat), 1, 2},        // truncated float
		{byte(KindString), 200},        // length beyond input
		{byte(KindReference), 1, 2, 3}, // truncated oid
		{255},                          // unknown kind
	}
	for _, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("Unmarshal(%v) succeeded", c)
		}
	}
	// Trailing garbage.
	if _, err := Unmarshal(append(Marshal(NewInt(1)), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func randomValue(rng *rand.Rand, depth int) Value {
	k := rng.Intn(10)
	if depth <= 0 && k > 6 {
		k = rng.Intn(7)
	}
	switch k {
	case 0:
		return Null
	case 1:
		return NewInt(int32(rng.Int63()))
	case 2:
		return NewLong(rng.Int63() - rng.Int63())
	case 3:
		return NewFloat(rng.NormFloat64() * 1e6)
	case 4:
		b := make([]byte, rng.Intn(20))
		rng.Read(b)
		return NewString(string(b))
	case 5:
		return NewChar(rune('a' + rng.Intn(26)))
	case 6:
		return NewBool(rng.Intn(2) == 0)
	case 7:
		return NewRef(storage.OID(rng.Uint64()))
	case 8:
		n := rng.Intn(4)
		out := Value{Kind: KindList}
		for i := 0; i < n; i++ {
			out.Append(randomValue(rng, depth-1))
		}
		return out
	default:
		n := rng.Intn(4)
		names := make([]string, n)
		fields := make([]Value, n)
		for i := 0; i < n; i++ {
			names[i] = string(rune('a' + i))
			fields[i] = randomValue(rng, depth-1)
		}
		return NewTuple(names, fields)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		v := randomValue(rng, 3)
		got, err := Unmarshal(Marshal(v))
		if err != nil {
			t.Fatalf("iter %d: %v (value %s)", i, err, v)
		}
		// Compare via re-encoding (handles NaN and null fields uniformly).
		if string(Marshal(got)) != string(Marshal(v)) {
			t.Fatalf("iter %d: roundtrip changed encoding of %s", i, v)
		}
	}
}

func TestTypeCheckAndZero(t *testing.T) {
	vehicle := TupleOf(
		Field{"id", TInteger},
		Field{"weight", TInteger},
		Field{"drivetrain", RefTo("VehicleDriveTrain")},
		Field{"manufacturer", RefTo("Company")},
	)
	z := vehicle.Zero()
	if err := vehicle.Check(z); err != nil {
		t.Errorf("zero value fails check: %v", err)
	}
	good := NewTuple(
		[]string{"id", "weight", "drivetrain"},
		[]Value{NewInt(1), NewInt(2000), NewRef(storage.MakeOID(2, 1, 1))},
	)
	if err := vehicle.Check(good); err != nil {
		t.Errorf("valid object rejected: %v", err)
	}
	bad := NewTuple([]string{"id"}, []Value{NewString("nope")})
	if err := vehicle.Check(bad); err == nil {
		t.Error("mistyped field accepted")
	}
	unknown := NewTuple([]string{"bogus"}, []Value{NewInt(1)})
	if err := vehicle.Check(unknown); err == nil {
		t.Error("unknown field accepted")
	}
	// Bounded strings.
	s32 := StringN(32)
	if err := s32.Check(NewString("ok")); err != nil {
		t.Errorf("short string rejected: %v", err)
	}
	long := make([]byte, 33)
	if err := s32.Check(NewString(string(long))); err == nil {
		t.Error("oversized string accepted")
	}
	// Numeric widening.
	if err := TFloat.Check(NewInt(3)); err != nil {
		t.Errorf("int into float rejected: %v", err)
	}
	if err := TInteger.Check(NewFloat(3)); err == nil {
		t.Error("float into int accepted")
	}
	// Collections check element types.
	st := SetOf(TInteger)
	if err := st.Check(NewSet(NewInt(1), NewInt(2))); err != nil {
		t.Errorf("int set rejected: %v", err)
	}
	if err := st.Check(NewSet(NewString("x"))); err == nil {
		t.Error("string in int set accepted")
	}
}

func TestTypeString(t *testing.T) {
	ty := TupleOf(
		Field{"engine", RefTo("VehicleEngine")},
		Field{"transmission", StringN(32)},
		Field{"tags", SetOf(TString)},
	)
	want := "TUPLE (engine REFERENCE (VehicleEngine), transmission String(32), tags SET (String))"
	if got := ty.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSortValues(t *testing.T) {
	vs := []Value{NewInt(3), NewInt(1), NewFloat(2.5), NewInt(2)}
	SortValues(vs)
	want := []float64{1, 2, 2.5, 3}
	for i, v := range vs {
		f, _ := v.AsFloat()
		if f != want[i] {
			t.Errorf("pos %d = %v, want %v", i, f, want[i])
		}
	}
}

func TestEqualSymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewLong(a), NewLong(b)
		return Equal(va, vb) == Equal(vb, va) && Equal(va, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestUnmarshalNamedReusesTable: attribute names that match the table are
// the table's strings, a mismatched one is a copy of the stored bytes, and
// reusing the table saves one allocation per matched name.
func TestUnmarshalNamedReusesTable(t *testing.T) {
	v := NewTuple([]string{"name", "weight", "color"}, []Value{NewString("BMW"), NewInt(1500), NewString("red")})
	data := Marshal(v)
	table := []string{"name", "weight", "colour"}
	got, err := UnmarshalNamed(data, table)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("UnmarshalNamed = %v, want %v", got, v)
	}
	for i, same := range []bool{true, true, false} {
		if (unsafe.StringData(got.Names[i]) == unsafe.StringData(table[i])) != same {
			t.Errorf("name %d shares the table's string: %v, want %v", i, !same, same)
		}
	}
	full := testing.AllocsPerRun(50, func() { _, _ = Unmarshal(data) })
	named := testing.AllocsPerRun(50, func() { _, _ = UnmarshalNamed(data, table) })
	if named != full-2 {
		t.Errorf("UnmarshalNamed allocates %v, Unmarshal %v; want two fewer", named, full)
	}
}
