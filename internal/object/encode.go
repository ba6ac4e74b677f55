package object

import (
	"encoding/binary"
	"fmt"
	"math"

	"mood/internal/storage"
)

// Self-describing binary encoding of values: one kind byte followed by a
// kind-specific payload. This is the stored representation of objects; the
// kernel's cursor mechanism (Section 9.4) decodes it back into name/type/
// value triples for MoodView.
//
//	Null                 — nothing
//	Integer              — varint (zigzag)
//	LongInteger          — varint (zigzag)
//	Float                — 8 bytes IEEE-754
//	String               — uvarint length + bytes
//	Char                 — varint code point
//	Boolean              — 1 byte
//	Reference            — 8 bytes OID
//	Set, List            — uvarint count + encoded elements
//	Tuple                — uvarint count + (name + encoded value)*

// Encode appends the binary form of v to dst and returns the result.
func Encode(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindInteger, KindLongInteger, KindChar:
		dst = binary.AppendVarint(dst, v.Int)
	case KindBoolean:
		b := byte(0)
		if v.Int != 0 {
			b = 1
		}
		dst = append(dst, b)
	case KindFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Flt))
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		dst = append(dst, v.Str...)
	case KindReference:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Ref))
		dst = append(dst, buf[:]...)
	case KindSet, KindList:
		dst = binary.AppendUvarint(dst, uint64(len(v.Elems)))
		for _, e := range v.Elems {
			dst = Encode(dst, e)
		}
	case KindTuple:
		dst = binary.AppendUvarint(dst, uint64(len(v.Fields)))
		for i, f := range v.Fields {
			dst = binary.AppendUvarint(dst, uint64(len(v.Names[i])))
			dst = append(dst, v.Names[i]...)
			dst = Encode(dst, f)
		}
	}
	return dst
}

// Marshal returns the binary form of v.
func Marshal(v Value) []byte { return Encode(nil, v) }

// Unmarshal decodes one value from data, which must contain exactly one
// encoded value.
func Unmarshal(data []byte) (Value, error) {
	unmarshals.Add(1)
	v, rest, err := Decode(data)
	if err != nil {
		return Null, err
	}
	if len(rest) != 0 {
		return Null, fmt.Errorf("object: %d trailing bytes after value", len(rest))
	}
	return v, nil
}

// UnmarshalNamed is Unmarshal against a name table: when data holds a tuple
// whose i-th stored attribute name equals names[i], the decoded tuple holds
// the table's string instead of a fresh copy of the stored bytes. A class's
// catalog attribute list is such a table, since objects are stored in its
// order; a name that differs (an object stored under another layout) is
// allocated as Unmarshal would. Nested tuples allocate their names. The
// result equals Unmarshal's, and it fails on the same records.
func UnmarshalNamed(data []byte, names []string) (Value, error) {
	unmarshals.Add(1)
	v, rest, err := decode(data, names)
	if err != nil {
		return Null, err
	}
	if len(rest) != 0 {
		return Null, fmt.Errorf("object: %d trailing bytes after value", len(rest))
	}
	return v, nil
}

// Decode decodes one value from the front of data, returning the remainder.
func Decode(data []byte) (Value, []byte, error) { return decode(data, nil) }

// decode is Decode with a name table for the top-level tuple's attribute
// names (see UnmarshalNamed).
func decode(data []byte, names []string) (Value, []byte, error) {
	if len(data) == 0 {
		return Null, nil, fmt.Errorf("object: empty input")
	}
	kind := Kind(data[0])
	data = data[1:]
	switch kind {
	case KindNull:
		return Null, data, nil
	case KindInteger, KindLongInteger, KindChar:
		n, sz := binary.Varint(data)
		if sz <= 0 {
			return Null, nil, fmt.Errorf("object: bad varint for %s", kind)
		}
		return Value{Kind: kind, Int: n}, data[sz:], nil
	case KindBoolean:
		if len(data) < 1 {
			return Null, nil, fmt.Errorf("object: truncated boolean")
		}
		return Value{Kind: KindBoolean, Int: int64(data[0] & 1)}, data[1:], nil
	case KindFloat:
		if len(data) < 8 {
			return Null, nil, fmt.Errorf("object: truncated float")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data))
		return Value{Kind: KindFloat, Flt: f}, data[8:], nil
	case KindString:
		n, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < n {
			return Null, nil, fmt.Errorf("object: truncated string")
		}
		return Value{Kind: KindString, Str: string(data[sz : sz+int(n)])}, data[sz+int(n):], nil
	case KindReference:
		if len(data) < 8 {
			return Null, nil, fmt.Errorf("object: truncated reference")
		}
		oid := storage.OID(binary.LittleEndian.Uint64(data))
		return Value{Kind: KindReference, Ref: oid}, data[8:], nil
	case KindSet, KindList:
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return Null, nil, fmt.Errorf("object: bad collection count")
		}
		data = data[sz:]
		out := Value{Kind: kind}
		if n > 0 {
			// Every element takes at least one byte, so a count beyond the
			// bytes left is corrupt; capping the pre-size keeps it from
			// asking for an impossible allocation before the loop fails.
			out.Elems = make([]Value, 0, min(n, uint64(len(data))))
		}
		for i := uint64(0); i < n; i++ {
			var e Value
			var err error
			e, data, err = Decode(data)
			if err != nil {
				return Null, nil, err
			}
			out.Elems = append(out.Elems, e)
		}
		return out, data, nil
	case KindTuple:
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return Null, nil, fmt.Errorf("object: bad tuple count")
		}
		data = data[sz:]
		out := Value{Kind: KindTuple}
		if n > 0 {
			// Every field takes at least two bytes (name length and kind):
			// size the slices once, capped as for collections.
			c := min(n, uint64(len(data)/2))
			out.Names, out.Fields = make([]string, 0, c), make([]Value, 0, c)
		}
		for i := uint64(0); i < n; i++ {
			nl, nsz := binary.Uvarint(data)
			if nsz <= 0 || uint64(len(data)-nsz) < nl {
				return Null, nil, fmt.Errorf("object: truncated field name")
			}
			var name string
			if stored := data[nsz : nsz+int(nl)]; i < uint64(len(names)) && string(stored) == names[i] {
				name = names[i]
			} else {
				name = string(stored)
			}
			data = data[nsz+int(nl):]
			var f Value
			var err error
			f, data, err = Decode(data)
			if err != nil {
				return Null, nil, err
			}
			out.Names = append(out.Names, name)
			out.Fields = append(out.Fields, f)
		}
		return out, data, nil
	}
	return Null, nil, fmt.Errorf("object: unknown kind byte %d", kind)
}

// Skip returns data with the encoded value at its front removed. It makes
// the bounds checks Decode makes, fails on the same inputs and consumes the
// same bytes, but builds no Value and allocates nothing on success.
func Skip(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("object: empty input")
	}
	kind := Kind(data[0])
	data = data[1:]
	switch kind {
	case KindNull:
		return data, nil
	case KindInteger, KindLongInteger, KindChar:
		_, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("object: bad varint for %s", kind)
		}
		return data[sz:], nil
	case KindBoolean:
		if len(data) < 1 {
			return nil, fmt.Errorf("object: truncated boolean")
		}
		return data[1:], nil
	case KindFloat:
		if len(data) < 8 {
			return nil, fmt.Errorf("object: truncated float")
		}
		return data[8:], nil
	case KindString:
		n, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < n {
			return nil, fmt.Errorf("object: truncated string")
		}
		return data[sz+int(n):], nil
	case KindReference:
		if len(data) < 8 {
			return nil, fmt.Errorf("object: truncated reference")
		}
		return data[8:], nil
	case KindSet, KindList:
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("object: bad collection count")
		}
		data = data[sz:]
		for i := uint64(0); i < n; i++ {
			var err error
			if data, err = Skip(data); err != nil {
				return nil, err
			}
		}
		return data, nil
	case KindTuple:
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, fmt.Errorf("object: bad tuple count")
		}
		data = data[sz:]
		for i := uint64(0); i < n; i++ {
			nl, nsz := binary.Uvarint(data)
			if nsz <= 0 || uint64(len(data)-nsz) < nl {
				return nil, fmt.Errorf("object: truncated field name")
			}
			var err error
			if data, err = Skip(data[nsz+int(nl):]); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	return nil, fmt.Errorf("object: unknown kind byte %d", kind)
}

// decodeFields is UnmarshalFields on the value at the front of data,
// returning the bytes after it: it fails on the same inputs as Decode and
// consumes the same bytes.
func decodeFields(data []byte, names []string, dst *Value) ([]byte, error) {
	if len(data) == 0 || Kind(data[0]) != KindTuple {
		v, rest, err := Decode(data)
		*dst = v
		return rest, err
	}
	data = data[1:]
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("object: bad tuple count")
	}
	data = data[sz:]
	*dst = Value{Kind: KindTuple, Names: dst.Names[:0], Fields: dst.Fields[:0]}
	for i := uint64(0); i < n; i++ {
		nl, nsz := binary.Uvarint(data)
		if nsz <= 0 || uint64(len(data)-nsz) < nl {
			return nil, fmt.Errorf("object: truncated field name")
		}
		name := data[nsz : nsz+int(nl)]
		data = data[nsz+int(nl):]
		want := -1
		for j, w := range names {
			if string(name) == w {
				want = j
				break
			}
		}
		var err error
		if want < 0 {
			if data, err = Skip(data); err != nil {
				return nil, err
			}
			continue
		}
		var f Value
		if f, data, err = Decode(data); err != nil {
			return nil, err
		}
		dst.Names = append(dst.Names, names[want])
		dst.Fields = append(dst.Fields, f)
	}
	return data, nil
}

// UnmarshalFields decodes data, which must contain exactly one encoded
// value, keeping of a tuple only the top-level attributes named in names:
// *dst becomes the tuple filtered to those attributes, in stored order and
// duplicates included, so a first-occurrence lookup of a wanted name finds
// the same value as in the whole tuple. Other attributes are stepped over
// with Skip. dst's slices are reused and its names alias the names slice. A
// value that is not a tuple has no attributes to filter and is decoded
// whole. It fails on the same records as Unmarshal. It is not counted by Unmarshals:
// that counter counts whole-object decodes.
func UnmarshalFields(data []byte, names []string, dst *Value) error {
	rest, err := decodeFields(data, names, dst)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("object: %d trailing bytes after value", len(rest))
	}
	return nil
}
