package object

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzNames are the attribute names FuzzDecode asks the partial decoder
// for; the first input byte picks a subset of them as a bit mask.
var fuzzNames = [...]string{"name", "weight", "ref", "tags", ""}

// FuzzDecode feeds arbitrary bytes to the four record readers and holds
// them to one another: none may panic, all fail on the same inputs with the
// same error, Skip consumes exactly the bytes Decode consumes,
// decodeFields yields the full value filtered to the wanted top-level
// attributes (the whole value when it is not a tuple), also when its
// destination still holds an earlier record, and UnmarshalNamed yields the
// full value whatever name table it is given. Values are compared by their
// encoding, which is exact for NaN floats where reflect.DeepEqual is not.
//
// Run bounded via `make fuzz`; the checked-in corpus under
// testdata/fuzz/FuzzDecode seeds valid tuples and the corrupt shapes.
func FuzzDecode(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(3), Marshal(fuzzTuple()))
	f.Add(byte(0xff), Marshal(NewList(fuzzTuple(), NewFloat(math.NaN()))))
	// A List whose count claims 2^63-1 elements.
	f.Add(byte(1), binary.AppendUvarint([]byte{byte(KindList)}, math.MaxInt64))
	f.Fuzz(func(t *testing.T, mask byte, data []byte) {
		var names []string
		for i, n := range fuzzNames {
			if mask&(1<<i) != 0 {
				names = append(names, n)
			}
		}
		full, rest, err := Decode(data)
		skipped, serr := Skip(data)
		if !sameError(err, serr) {
			t.Fatalf("Decode err %v, Skip err %v", err, serr)
		}
		if err == nil && len(skipped) != len(rest) {
			t.Fatalf("Decode left %d bytes, Skip left %d", len(rest), len(skipped))
		}

		dirty := fuzzTuple()
		for _, dst := range []*Value{{}, &dirty} {
			prest, perr := decodeFields(data, names, dst)
			if !sameError(err, perr) {
				t.Fatalf("Decode err %v, decodeFields err %v", err, perr)
			}
			if err != nil {
				continue
			}
			if len(prest) != len(rest) {
				t.Fatalf("Decode left %d bytes, decodeFields left %d", len(rest), len(prest))
			}
			want := full
			if full.Kind == KindTuple {
				want = Value{Kind: KindTuple}
				for i, n := range full.Names {
					for _, w := range names {
						if n == w {
							want.Names = append(want.Names, n)
							want.Fields = append(want.Fields, full.Fields[i])
							break
						}
					}
				}
			}
			if !bytes.Equal(Marshal(*dst), Marshal(want)) {
				t.Fatalf("decodeFields(%q) = %v, want %v", names, *dst, want)
			}
		}
		// The named decoder agrees with the full one whichever name table
		// it is handed: the picked subset (usually not the stored order),
		// and the stored names themselves.
		whole, uerr := Unmarshal(data)
		tables := [][]string{names}
		if uerr == nil && whole.Kind == KindTuple {
			tables = append(tables, whole.Names)
		}
		for _, table := range tables {
			named, nerr := UnmarshalNamed(data, table)
			if !sameError(uerr, nerr) {
				t.Fatalf("Unmarshal err %v, UnmarshalNamed(%q) err %v", uerr, table, nerr)
			}
			if uerr == nil && !bytes.Equal(Marshal(named), Marshal(whole)) {
				t.Fatalf("UnmarshalNamed(%q) = %v, want %v", table, named, whole)
			}
		}
		var dst Value
		_ = UnmarshalFields(data, names, &dst)
	})
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// fuzzTuple is a record with every kind, a nested tuple, a collection of
// tuples and a duplicated attribute name.
func fuzzTuple() Value {
	return NewTuple(
		[]string{"name", "weight", "ref", "tags", "inner", "name", "flag", "ratio", "c", "nil"},
		[]Value{
			NewString("BMW"), NewInt(1500), NewRef(7),
			NewList(NewString("a"), NewTuple([]string{"name"}, []Value{NewLong(-3)})),
			NewTuple([]string{"weight"}, []Value{NewInt(2)}),
			NewString("second"), NewBool(true), NewFloat(0.25), NewChar('x'), Null,
		})
}

// TestDecodeCorruptCountIsAnError: a collection count far beyond the bytes
// left is reported as an error by every reader, never a makeslice panic.
func TestDecodeCorruptCountIsAnError(t *testing.T) {
	rec := binary.AppendUvarint([]byte{byte(KindList)}, math.MaxInt64)
	if len(rec) != 10 {
		t.Fatalf("record is %d bytes, want 10", len(rec))
	}
	if _, err := Unmarshal(rec); err == nil {
		t.Error("Unmarshal accepted a list of 2^63-1 elements in 9 bytes")
	}
	if _, err := Skip(rec); err == nil {
		t.Error("Skip accepted a list of 2^63-1 elements in 9 bytes")
	}
	var dst Value
	if err := UnmarshalFields(rec, []string{"name"}, &dst); err == nil {
		t.Error("UnmarshalFields accepted a list of 2^63-1 elements in 9 bytes")
	}
}

// TestUnmarshalFieldsKeepsWantedAttributes: the partial tuple holds exactly the
// wanted attributes in stored order, duplicates included, and a
// first-occurrence lookup agrees with the full tuple.
func TestUnmarshalFieldsKeepsWantedAttributes(t *testing.T) {
	full := fuzzTuple()
	var part Value
	if err := UnmarshalFields(Marshal(full), []string{"name", "ref", "absent"}, &part); err != nil {
		t.Fatal(err)
	}
	if len(part.Names) != 3 || part.Names[0] != "name" || part.Names[1] != "ref" || part.Names[2] != "name" {
		t.Fatalf("partial names %q", part.Names)
	}
	for _, n := range []string{"name", "ref", "absent", "weight"} {
		pv, pok := part.Field(n)
		fv, fok := full.Field(n)
		if wanted := n != "weight"; wanted && (pok != fok || !Equal(pv, fv)) {
			t.Errorf("Field(%q): partial (%v, %v), full (%v, %v)", n, pv, pok, fv, fok)
		}
	}
	if _, ok := part.Field("weight"); ok {
		t.Error("unwanted attribute weight decoded")
	}
	if err := UnmarshalFields(append(Marshal(full), 0), []string{"name"}, &part); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestSkipAllocatesNothing: stepping over a record builds no value.
func TestSkipAllocatesNothing(t *testing.T) {
	rec := Marshal(fuzzTuple())
	if n := testing.AllocsPerRun(100, func() {
		if rest, err := Skip(rec); err != nil || len(rest) != 0 {
			t.Fatalf("Skip: rest %d, err %v", len(rest), err)
		}
	}); n != 0 {
		t.Errorf("Skip allocates %v times per record", n)
	}
}
