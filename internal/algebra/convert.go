package algebra

import (
	"fmt"

	"mood/internal/object"
	"mood/internal/storage"
)

// AsSet converts arg to a set of object identifiers (Table 5): the object
// identifiers of an extent's objects, of a set or list's elements, or of a
// named object.
func (a *Algebra) AsSet(arg *Collection) *Collection {
	out := &Collection{Kind: SetKind, Name: arg.Name, Class: arg.Class}
	seen := map[storage.OID]bool{}
	for _, r := range arg.Rows {
		oid := r.Vars[arg.Name].OID
		if oid.IsNil() || seen[oid] {
			continue
		}
		seen[oid] = true
		out.Rows = append(out.Rows, Row{Vars: map[string]Bound{arg.Name: {OID: oid}}})
	}
	return out
}

// AsList converts arg to a list of object identifiers (Table 5), preserving
// order and duplicates.
func (a *Algebra) AsList(arg *Collection) *Collection {
	out := &Collection{Kind: ListKind, Name: arg.Name, Class: arg.Class}
	for _, r := range arg.Rows {
		oid := r.Vars[arg.Name].OID
		if oid.IsNil() {
			continue
		}
		out.Rows = append(out.Rows, Row{Vars: map[string]Bound{arg.Name: {OID: oid}}})
	}
	return out
}

// AsExtent converts a set or list into the extent of the dereferenced
// objects of its elements (Table 6).
func (a *Algebra) AsExtent(arg *Collection) (*Collection, error) {
	if arg.Kind != SetKind && arg.Kind != ListKind {
		return nil, fmt.Errorf("%w: asExtent on %s", ErrNotApplicable, arg.Kind)
	}
	out := &Collection{Kind: ExtentKind, Name: arg.Name, Class: arg.Class}
	for _, r := range arg.Rows {
		b := r.Vars[arg.Name]
		if err := a.MaterializeBound(&b); err != nil {
			return nil, err
		}
		nr := Row{Vars: make(map[string]Bound, len(r.Vars))}
		for k, v := range r.Vars {
			nr.Vars[k] = v
		}
		nr.Vars[arg.Name] = b
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// Unnest is the 1NF unnest borrowed from the nested relational algebra
// (Table 7): each tuple with a set/list-valued attribute produces one
// output tuple per element. The paper's example:
//
//	e  = {<o1,{o2,o3}>, <o4,{o5}>}
//	e' = {<o1,o2>, <o1,o3>, <o4,o5>}
//
// The argument may be an extent of tuple objects, a set or list of object
// identifiers of tuple objects, or a single tuple object; the result is
// always an extent of tuples.
func (a *Algebra) Unnest(arg *Collection, attr string) (*Collection, error) {
	out := &Collection{Kind: ExtentKind, Name: arg.Name, Class: ""}
	for _, r := range arg.Rows {
		b := r.Vars[arg.Name]
		if err := a.MaterializeBound(&b); err != nil {
			return nil, err
		}
		if b.Val.Kind != object.KindTuple {
			return nil, fmt.Errorf("%w: Unnest of non-tuple element", ErrNotApplicable)
		}
		av, ok := b.Val.Field(attr)
		if !ok {
			return nil, fmt.Errorf("algebra: Unnest attribute %q missing", attr)
		}
		if av.Kind != object.KindSet && av.Kind != object.KindList {
			return nil, fmt.Errorf("%w: Unnest attribute %q is %s", ErrNotApplicable, attr, av.Kind)
		}
		for _, elem := range av.Elems {
			tup := b.Val.Clone()
			tup.SetField(attr, elem)
			out.Rows = append(out.Rows, Row{Vars: map[string]Bound{arg.Name: {Val: tup}}})
		}
	}
	return out, nil
}

// Nest is the inverse of Unnest: tuples agreeing on every attribute except
// attr are merged, their attr values collected into a set.
func (a *Algebra) Nest(arg *Collection, attr string) (*Collection, error) {
	out := &Collection{Kind: ExtentKind, Name: arg.Name, Class: ""}
	type group struct {
		proto object.Value
		set   object.Value
	}
	var order []string
	groups := map[string]*group{}
	for _, r := range arg.Rows {
		b := r.Vars[arg.Name]
		if err := a.MaterializeBound(&b); err != nil {
			return nil, err
		}
		if b.Val.Kind != object.KindTuple {
			return nil, fmt.Errorf("%w: Nest of non-tuple element", ErrNotApplicable)
		}
		av, ok := b.Val.Field(attr)
		if !ok {
			return nil, fmt.Errorf("algebra: Nest attribute %q missing", attr)
		}
		rest := b.Val.Clone()
		rest.SetField(attr, object.Null)
		key := rest.String()
		g, exists := groups[key]
		if !exists {
			g = &group{proto: rest, set: object.Value{Kind: object.KindSet}}
			groups[key] = g
			order = append(order, key)
		}
		g.set.SetAdd(av)
	}
	for _, key := range order {
		g := groups[key]
		tup := g.proto
		tup.SetField(attr, g.set)
		out.Rows = append(out.Rows, Row{Vars: map[string]Bound{arg.Name: {Val: tup}}})
	}
	return out, nil
}

// Flatten converts a set/list of sets/lists of object identifiers into the
// set of object identifiers:
//
//	Flatten({{oid1, oid2}, {oid3}}) = {oid1, oid2, oid3}
//
// The result is always a set.
func Flatten(v object.Value) (object.Value, error) {
	if v.Kind != object.KindSet && v.Kind != object.KindList {
		return object.Null, fmt.Errorf("%w: Flatten of %s", ErrNotApplicable, v.Kind)
	}
	out := object.Value{Kind: object.KindSet}
	for _, e := range v.Elems {
		switch e.Kind {
		case object.KindSet, object.KindList:
			for _, inner := range e.Elems {
				out.SetAdd(inner)
			}
		default:
			out.SetAdd(e)
		}
	}
	return out, nil
}

// FlattenCollection flattens a collection whose primary values are
// sets/lists of references into a Set collection of the inner OIDs.
func (a *Algebra) FlattenCollection(arg *Collection) (*Collection, error) {
	out := &Collection{Kind: SetKind, Name: arg.Name, Class: arg.Class}
	seen := map[storage.OID]bool{}
	for _, r := range arg.Rows {
		b := r.Vars[arg.Name]
		if err := a.MaterializeBound(&b); err != nil {
			return nil, err
		}
		if b.Val.Kind != object.KindSet && b.Val.Kind != object.KindList {
			return nil, fmt.Errorf("%w: Flatten element of kind %s", ErrNotApplicable, b.Val.Kind)
		}
		flat, err := Flatten(b.Val)
		if err != nil {
			return nil, err
		}
		for _, e := range flat.Elems {
			if e.Kind == object.KindReference && !e.Ref.IsNil() && !seen[e.Ref] {
				seen[e.Ref] = true
				out.Rows = append(out.Rows, Row{Vars: map[string]Bound{arg.Name: {OID: e.Ref}}})
			}
		}
	}
	return out, nil
}
