// Package algebra implements the MOOD algebra of Section 3.2: the general
// operators (ObjId, TypeId, Deref, isA, Bind), the collection operators
// (Select, IndSel, Project, Join, Partition, Sort, DupElim, Union,
// Intersection, Difference) and the conversion operators (asSet, asList,
// asExtent, Unnest, Nest, Flatten), with the return-type rules of the
// paper's Tables 1–7 tracked on every result.
//
// Objects are accessed through the four collection kinds the paper lists:
// extents (objects), sets and lists (object identifiers), and named
// objects. A Collection's rows carry variable bindings so that join results
// can keep every joined object addressable by its range variable, as the
// access plans of Examples 8.1 and 8.2 require.
package algebra

import (
	"errors"
	"fmt"

	"mood/internal/catalog"
	"mood/internal/expr"
	"mood/internal/object"
	"mood/internal/storage"
)

// Kind is the collection kind of Tables 1–7.
type Kind uint8

// The four collection kinds.
const (
	ExtentKind Kind = iota
	SetKind
	ListKind
	NamedObjKind
)

func (k Kind) String() string {
	switch k {
	case ExtentKind:
		return "Extent"
	case SetKind:
		return "Set"
	case ListKind:
		return "List"
	case NamedObjKind:
		return "NamedObj"
	}
	return "?"
}

// Bound is one object bound to a range variable: its identifier and, when
// materialized, its value. Set/List collections may carry OIDs only; Deref
// materializes values on demand. It is the expression package's Binding,
// so a streaming row vector of Bounds is evaluated in place.
type Bound = expr.Binding

// Row is one element of a collection: a set of variable bindings. A simple
// collection (one class extent bound to one variable) has a single binding;
// join results accumulate one binding per joined collection.
type Row struct {
	Vars map[string]Bound
}

// Get returns the binding of a variable.
func (r Row) Get(name string) (Bound, bool) {
	b, ok := r.Vars[name]
	return b, ok
}

// Merged combines two rows (disjoint variable sets).
func (r Row) Merged(o Row) Row {
	out := Row{Vars: make(map[string]Bound, len(r.Vars)+len(o.Vars))}
	for k, v := range r.Vars {
		out.Vars[k] = v
	}
	for k, v := range o.Vars {
		out.Vars[k] = v
	}
	return out
}

// Collection is the runtime value flowing between algebra operators.
type Collection struct {
	Kind Kind
	// Name is the distinguished range variable (the paper's Bind name);
	// operators that need "the" object of a row use it.
	Name string
	// Class is the class of the distinguished variable, when known.
	Class string
	Rows  []Row
}

// Len returns the number of rows.
func (c *Collection) Len() int { return len(c.Rows) }

// Primary returns the bound object of the distinguished variable of row i.
func (c *Collection) Primary(i int) Bound {
	b := c.Rows[i].Vars[c.Name]
	return b
}

// OIDs returns the distinguished variable's OIDs in row order.
func (c *Collection) OIDs() []storage.OID {
	out := make([]storage.OID, len(c.Rows))
	for i := range c.Rows {
		out[i] = c.Primary(i).OID
	}
	return out
}

func (c *Collection) String() string {
	return fmt.Sprintf("%s(%s:%s)[%d rows]", c.Kind, c.Name, c.Class, len(c.Rows))
}

// singleVar builds a collection binding each object to one variable.
func singleVar(kind Kind, name, class string, items []Bound) *Collection {
	rows := make([]Row, len(items))
	for i, it := range items {
		rows[i] = Row{Vars: map[string]Bound{name: it}}
	}
	return &Collection{Kind: kind, Name: name, Class: class, Rows: rows}
}

// Errors of the algebra.
var (
	ErrNotApplicable = errors.New("algebra: operator not applicable to this collection kind")
	ErrNoIndex       = errors.New("algebra: no index available")
)

// Algebra evaluates the operators against one catalog.
type Algebra struct {
	Cat *catalog.Catalog
	// Invoke dispatches parameterless-method predicates; nil disables them.
	Invoke func(self object.Value, selfOID storage.OID, method string, args []object.Value) (object.Value, error)
}

// New creates an algebra over the catalog.
func New(cat *catalog.Catalog) *Algebra { return &Algebra{Cat: cat} }

// --- General operators (Section 3.2) -------------------------------------

// ObjId returns the object identifier of a bound object — ObjId(o).
func (a *Algebra) ObjId(b Bound) storage.OID { return b.OID }

// TypeId returns the type identifier of the object — TypeId(o). Every MOOD
// object carries its class id in its stored form.
func (a *Algebra) TypeId(oid storage.OID) (int, error) {
	_, class, err := a.Cat.GetObject(oid)
	if err != nil {
		return 0, err
	}
	return a.Cat.TypeID(class)
}

// Deref returns the object with the given identifier — Deref(oid).
func (a *Algebra) Deref(oid storage.OID) (object.Value, error) {
	v, _, err := a.Cat.GetObject(oid)
	return v, err
}

// IsA returns the class name of the last attribute of a path expression
// starting with a class name — isA(path).
func (a *Algebra) IsA(class string, path []string) (string, error) {
	return a.Cat.IsAPath(class, path)
}

// Bind gives the name aName to the extent of a class (with its IS-A
// closure, honoring the FROM clause's minus operator) — Bind(arg, aName).
func (a *Algebra) Bind(class, aName string, minus ...string) (*Collection, error) {
	var items []Bound
	err := a.Cat.ScanClosure(class, minus, func(oid storage.OID, v object.Value) bool {
		items = append(items, Bound{OID: oid, Val: v})
		return true
	})
	if err != nil {
		return nil, err
	}
	return singleVar(ExtentKind, aName, class, items), nil
}

// BindSet wraps a set of object identifiers as a named Set collection.
func (a *Algebra) BindSet(name, class string, oids []storage.OID) *Collection {
	items := make([]Bound, 0, len(oids))
	seen := map[storage.OID]bool{}
	for _, oid := range oids {
		if seen[oid] {
			continue
		}
		seen[oid] = true
		items = append(items, Bound{OID: oid})
	}
	return singleVar(SetKind, name, class, items)
}

// BindList wraps a list of object identifiers as a named List collection.
func (a *Algebra) BindList(name, class string, oids []storage.OID) *Collection {
	items := make([]Bound, len(oids))
	for i, oid := range oids {
		items[i] = Bound{OID: oid}
	}
	return singleVar(ListKind, name, class, items)
}

// BindNamed wraps one object as a Named Object collection ("another way to
// access an object is to give a unique name to an object").
func (a *Algebra) BindNamed(name, class string, oid storage.OID) (*Collection, error) {
	v, _, err := a.Cat.GetObject(oid)
	if err != nil {
		return nil, err
	}
	return singleVar(NamedObjKind, name, class, []Bound{{OID: oid, Val: v}}), nil
}

// MaterializeBound ensures a binding carries its value, fetching the object
// when the binding is an OID-only Set/List element.
func (a *Algebra) MaterializeBound(b *Bound) error {
	if !b.Val.IsNull() || b.OID.IsNil() {
		return nil
	}
	v, _, err := a.Cat.GetObject(b.OID)
	if err != nil {
		return err
	}
	b.Val = v
	return nil
}

// Materialize loads values for every row of the collection (dereferencing
// the object identifiers of Set/List collections).
func (a *Algebra) Materialize(c *Collection) error {
	for i := range c.Rows {
		for name := range c.Rows[i].Vars {
			b := c.Rows[i].Vars[name]
			if err := a.MaterializeBound(&b); err != nil {
				return err
			}
			c.Rows[i].Vars[name] = b
		}
	}
	return nil
}
