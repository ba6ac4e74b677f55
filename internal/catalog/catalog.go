// Package catalog implements the MOOD catalog: "the definition of classes,
// types, and member functions in a structure similar to a compiler symbol
// table" (Section 2, Figure 2.2). Compile-time information is carried to run
// time through MoodsType, MoodsAttribute and MoodsFunction entries, which is
// what makes late binding possible. The catalog also owns class extents
// (every class has a default extent holding the instances created), the
// multiple-inheritance DAG, and the index directory used by the optimizer.
//
// Classes vs types (Section 2): a class has a default extent, is organized
// into the class hierarchy, and its instances are objects with identity;
// values which are instances of types have copy semantics.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mood/internal/objcache"
	"mood/internal/object"
	"mood/internal/storage"
)

// Errors returned by catalog operations.
var (
	ErrNoSuchClass     = errors.New("catalog: no such class")
	ErrNoSuchType      = errors.New("catalog: no such type")
	ErrNoSuchAttribute = errors.New("catalog: no such attribute")
	ErrDuplicateName   = errors.New("catalog: name already defined")
	ErrCycle           = errors.New("catalog: inheritance cycle")
)

// MethodSig is a MoodsFunction entry: MOOD "handles the methods only by
// keeping information on their name, return type, and names and types of
// their parameters" (Section 3.1); bodies live in the Function Manager.
type MethodSig struct {
	Class      string
	Name       string
	ParamNames []string
	ParamTypes []*object.Type
	ReturnType *object.Type
}

// Signature renders the lookup key used to locate the function: class name
// plus parameter list, as described in Section 2.
func (m *MethodSig) Signature() string {
	params := make([]string, len(m.ParamTypes))
	for i, p := range m.ParamTypes {
		params[i] = p.String()
	}
	return fmt.Sprintf("%s::%s(%s)", m.Class, m.Name, strings.Join(params, ","))
}

func (m *MethodSig) String() string {
	return m.Signature() + " " + m.ReturnType.String()
}

// Class is a MoodsType entry for a class (or a pure type when IsClass is
// false). Own attributes live in Tuple; inherited ones are resolved through
// Supers.
type Class struct {
	ID      int
	Name    string
	IsClass bool // classes have extents and identity; types have copy semantics
	Tuple   *object.Type
	Supers  []string
	Methods []*MethodSig

	extent *storage.Extent

	// mutations counts the creates, updates and deletes applied to the
	// extent. It moves after the store change, so a reader that loads it
	// before scanning either sees the change or holds an older count.
	mutations atomic.Uint64
}

// Extent returns the class's default extent (nil for pure types).
func (c *Class) Extent() *storage.Extent { return c.extent }

// Mutations returns the class's mutation counter: it moves with every
// CreateObject, UpdateObject and DeleteObject on the class's own extent
// (the logical undo of an abort goes through the same calls).
func (c *Class) Mutations() uint64 { return c.mutations.Load() }

// Catalog is the schema and object manager.
type Catalog struct {
	mu    sync.RWMutex
	store storage.Store

	classes map[string]*Class
	byID    map[int]*Class
	nextID  int

	indexes map[string]*Index // by index name

	sysFile *storage.Extent        // persisted catalog records
	sysOIDs map[string]storage.OID // class name -> catalog record OID
	idxFile *storage.Extent        // persisted index records
	idxOIDs map[string]storage.OID // index name -> record OID

	// ocache, when set, is the decoded-object cache consulted by
	// GetObject/GetObjects. Installed once at open time, read-only after.
	ocache *objcache.Cache

	// accObs, when set, receives the request-ordered OID batch of every
	// GetObjects call — the clustering tracer's reference-traversal feed.
	// Installed once at open time, read-only after.
	accObs AccessObserver

	// mutObs, when set, receives every object mutation the catalog applies
	// — the kernel's join-index maintenance feed. Installed once at open
	// time, read-only after.
	mutObs MutationObserver

	// schema moves with every class or type definition and drop.
	schema atomic.Uint64
}

// AccessObserver receives the request-ordered OID batches readers
// dereference together. Implementations must be safe for concurrent calls
// and must not call back into the catalog.
type AccessObserver func(oids []storage.OID)

// MutationObserver receives every object mutation after the catalog has
// applied it to the store: op is 'c' (create), 'u' (update) or 'd'
// (delete); old is the zero Value on create and new the zero Value on
// delete. Implementations must be safe for concurrent calls and must not
// call back into the catalog's object paths. A returned error fails the
// mutating call after the fact — the store change stands, matching the
// partial-failure semantics of attribute-index maintenance.
type MutationObserver func(op byte, class string, oid storage.OID, old, new object.Value) error

// New creates a catalog over the store, bootstrapping its system extents
// (SYS.MoodsType, SYS.MoodsIndex). The store may be a single ObjectStore or
// a ShardedStore — the catalog only speaks the Store interface.
func New(store storage.Store) (*Catalog, error) {
	c := &Catalog{
		store:   store,
		classes: make(map[string]*Class),
		byID:    make(map[int]*Class),
		nextID:  1,
		indexes: make(map[string]*Index),
		sysOIDs: make(map[string]storage.OID),
		idxOIDs: make(map[string]storage.OID),
	}
	var err error
	if c.sysFile, err = store.CreateExtent("SYS.MoodsType"); err != nil {
		return nil, err
	}
	if c.idxFile, err = store.CreateExtent("SYS.MoodsIndex"); err != nil {
		return nil, err
	}
	return c, nil
}

// Store returns the underlying object store.
func (c *Catalog) Store() storage.Store { return c.store }

// DefineClass creates a class with the given tuple type, superclasses and
// methods, and allocates its default extent.
func (c *Catalog) DefineClass(name string, tuple *object.Type, supers []string, methods []*MethodSig) (*Class, error) {
	return c.define(name, tuple, supers, methods, true)
}

// DefineType creates a named pure type (copy semantics, no extent).
func (c *Catalog) DefineType(name string, tuple *object.Type) (*Class, error) {
	return c.define(name, tuple, nil, nil, false)
}

func (c *Catalog) define(name string, tuple *object.Type, supers []string, methods []*MethodSig, isClass bool) (*Class, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.classes[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateName, name)
	}
	if tuple == nil {
		tuple = object.TupleOf()
	}
	if tuple.Kind != object.KindTuple {
		return nil, fmt.Errorf("catalog: class %s must have a tuple type, got %s", name, tuple)
	}
	for _, s := range supers {
		sup, ok := c.classes[s]
		if !ok {
			return nil, fmt.Errorf("%w: superclass %s of %s", ErrNoSuchClass, s, name)
		}
		if !sup.IsClass {
			return nil, fmt.Errorf("catalog: %s cannot inherit from type %s", name, s)
		}
	}
	cl := &Class{
		ID:      c.nextID,
		Name:    name,
		IsClass: isClass,
		Tuple:   tuple,
		Supers:  append([]string(nil), supers...),
	}
	for _, m := range methods {
		mm := *m
		mm.Class = name
		cl.Methods = append(cl.Methods, &mm)
	}
	c.nextID++
	if isClass {
		ext, err := c.store.CreateExtent("extent." + name)
		if err != nil {
			return nil, err
		}
		cl.extent = ext
	}
	c.classes[name] = cl
	c.byID[cl.ID] = cl
	c.schema.Add(1)
	if err := c.persistClass(cl); err != nil {
		return nil, err
	}
	return cl, nil
}

// DropClass removes a class that has no subclasses, dropping its extent and
// any indexes on it.
func (c *Catalog) DropClass(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchClass, name)
	}
	for _, other := range c.classes {
		for _, s := range other.Supers {
			if s == name {
				return fmt.Errorf("catalog: class %s has subclass %s", name, other.Name)
			}
		}
	}
	for iname, ix := range c.indexes {
		if ix.Class == name {
			delete(c.indexes, iname)
			if oid, ok := c.idxOIDs[iname]; ok {
				c.store.Delete(oid)
				delete(c.idxOIDs, iname)
			}
		}
	}
	if cl.extent != nil {
		if err := c.store.DropExtent(cl.extent.Name); err != nil {
			return err
		}
	}
	if oid, ok := c.sysOIDs[name]; ok {
		if err := c.store.Delete(oid); err != nil {
			return err
		}
		delete(c.sysOIDs, name)
	}
	delete(c.classes, name)
	delete(c.byID, cl.ID)
	c.schema.Add(1)
	return nil
}

// SchemaVersion returns a counter that moves with every class or type
// definition and drop, so a cache built over the class set can tell when
// that set changed.
func (c *Catalog) SchemaVersion() uint64 { return c.schema.Load() }

// Class returns the class or named type.
func (c *Catalog) Class(name string) (*Class, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchClass, name)
	}
	return cl, nil
}

// Classes returns every class and named type sorted by ID.
func (c *Catalog) Classes() []*Class {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Class, 0, len(c.classes))
	for _, cl := range c.classes {
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TypeID returns the identifier of the named class or type — the paper's
// typeId(char *typeName).
func (c *Catalog) TypeID(name string) (int, error) {
	cl, err := c.Class(name)
	if err != nil {
		return 0, err
	}
	return cl.ID, nil
}

// TypeName returns the name of the class or type with the given identifier
// — the paper's typeName(int typeId).
func (c *Catalog) TypeName(id int) (string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.byID[id]
	if !ok {
		return "", fmt.Errorf("%w: id %d", ErrNoSuchType, id)
	}
	return cl.Name, nil
}

// Supers returns the direct superclasses.
func (c *Catalog) Supers(name string) ([]string, error) {
	cl, err := c.Class(name)
	if err != nil {
		return nil, err
	}
	return cl.Supers, nil
}

// Subclasses returns the direct subclasses of the class, sorted.
func (c *Catalog) Subclasses(name string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for _, cl := range c.classes {
		for _, s := range cl.Supers {
			if s == name {
				out = append(out, cl.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// IsA reports whether sub is the same class as super or inherits from it
// (transitively, through any path of the DAG).
func (c *Catalog) IsA(sub, super string) bool {
	if sub == super {
		return true
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.isALocked(sub, super, map[string]bool{})
}

func (c *Catalog) isALocked(sub, super string, seen map[string]bool) bool {
	if seen[sub] {
		return false
	}
	seen[sub] = true
	cl, ok := c.classes[sub]
	if !ok {
		return false
	}
	for _, s := range cl.Supers {
		if s == super || c.isALocked(s, super, seen) {
			return true
		}
	}
	return false
}

// Closure returns the class and all its transitive subclasses — the set of
// classes whose extents contribute to "FROM EVERY C" (an IS-A range).
func (c *Catalog) Closure(name string) ([]string, error) {
	if _, err := c.Class(name); err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := []string{name}
	seen := map[string]bool{name: true}
	for i := 0; i < len(out); i++ {
		for _, cl := range c.classes {
			for _, s := range cl.Supers {
				if s == out[i] && !seen[cl.Name] {
					seen[cl.Name] = true
					out = append(out, cl.Name)
				}
			}
		}
	}
	sort.Strings(out[1:])
	return out, nil
}

// AllAttributes returns the class's attributes including inherited ones, in
// superclass-first declaration order. With multiple inheritance the first
// definition of a name (leftmost superclass path) wins.
func (c *Catalog) AllAttributes(name string) ([]object.Field, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []object.Field
	seenAttr := map[string]bool{}
	seenClass := map[string]bool{}
	var visit func(string) error
	visit = func(n string) error {
		if seenClass[n] {
			return nil
		}
		seenClass[n] = true
		cl, ok := c.classes[n]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchClass, n)
		}
		for _, s := range cl.Supers {
			if err := visit(s); err != nil {
				return err
			}
		}
		for _, f := range cl.Tuple.Fields {
			if !seenAttr[f.Name] {
				seenAttr[f.Name] = true
				out = append(out, f)
			}
		}
		return nil
	}
	if err := visit(name); err != nil {
		return nil, err
	}
	return out, nil
}

// AttributeType resolves an attribute (own or inherited) to its type — the
// MoodsAttribute lookup.
func (c *Catalog) AttributeType(class, attr string) (*object.Type, error) {
	attrs, err := c.AllAttributes(class)
	if err != nil {
		return nil, err
	}
	for _, f := range attrs {
		if f.Name == attr {
			return f.Type, nil
		}
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, class, attr)
}

// Method resolves a method by name on the class or, failing that, its
// superclasses (late binding walks the hierarchy).
func (c *Catalog) Method(class, name string) (*MethodSig, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var find func(string, map[string]bool) *MethodSig
	find = func(n string, seen map[string]bool) *MethodSig {
		if seen[n] {
			return nil
		}
		seen[n] = true
		cl, ok := c.classes[n]
		if !ok {
			return nil
		}
		for _, m := range cl.Methods {
			if m.Name == name {
				return m
			}
		}
		for _, s := range cl.Supers {
			if m := find(s, seen); m != nil {
				return m
			}
		}
		return nil
	}
	if m := find(class, map[string]bool{}); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("catalog: no method %s on %s", name, class)
}

// AllMethods returns every method visible on the class, inherited included;
// overridden methods (same name) appear once, the most-derived definition
// winning.
func (c *Catalog) AllMethods(class string) []*MethodSig {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*MethodSig
	seenName := map[string]bool{}
	seenClass := map[string]bool{}
	var visit func(string)
	visit = func(n string) {
		if seenClass[n] {
			return
		}
		seenClass[n] = true
		cl, ok := c.classes[n]
		if !ok {
			return
		}
		for _, m := range cl.Methods {
			if !seenName[m.Name] {
				seenName[m.Name] = true
				out = append(out, m)
			}
		}
		for _, s := range cl.Supers {
			visit(s)
		}
	}
	visit(class)
	return out
}

// IsAPath resolves the class reached by following a path expression that
// starts at a class — the algebra's isA(path) operator. Path components are
// reference (or set/list-of-reference) attributes except possibly the last.
// It returns the class name of the last attribute of the path.
func (c *Catalog) IsAPath(class string, attrs []string) (string, error) {
	cur := class
	for i, a := range attrs {
		ty, err := c.AttributeType(cur, a)
		if err != nil {
			return "", err
		}
		switch ty.Kind {
		case object.KindReference:
			cur = ty.Target
		case object.KindSet, object.KindList:
			if ty.Elem != nil && ty.Elem.Kind == object.KindReference {
				cur = ty.Elem.Target
				continue
			}
			if i != len(attrs)-1 {
				return "", fmt.Errorf("catalog: attribute %s.%s is not a reference path component", cur, a)
			}
			return ty.String(), nil
		default:
			if i != len(attrs)-1 {
				return "", fmt.Errorf("catalog: attribute %s.%s is atomic mid-path", cur, a)
			}
			return ty.String(), nil
		}
	}
	return cur, nil
}
