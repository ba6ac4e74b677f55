package catalog

import (
	"encoding/binary"
	"fmt"

	"mood/internal/objcache"
	"mood/internal/object"
	"mood/internal/storage"
)

// Stored object format: uvarint class id ++ encoded value. Carrying the
// class id with every object is what lets the kernel "identify type and
// value of an object in the system at run-time using the MOOD Catalog"
// (Section 9.4).

func encodeObject(classID int, v object.Value) []byte {
	buf := binary.AppendUvarint(nil, uint64(classID))
	return object.Encode(buf, v)
}

// decodeObject decodes a stored object against its class's name table and
// returns the class with the value.
func (c *Catalog) decodeObject(data []byte) (*Class, object.Value, error) {
	id, body, err := objectBody(data)
	if err != nil {
		return nil, object.Null, err
	}
	cl, err := c.classByID(id)
	if err != nil {
		return nil, object.Null, err
	}
	v, err := object.UnmarshalNamed(body, c.nameTable(cl))
	return cl, v, err
}

// objectBody splits a stored object into its class id and its encoded
// value.
func objectBody(data []byte) (int, []byte, error) {
	id, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("catalog: corrupt object header")
	}
	return int(id), data[n:], nil
}

// CreateObject inserts a new instance of the class into its extent,
// type-checking it against the class's full (inherited) attribute set, and
// maintains every index on the class. It returns the object identifier.
func (c *Catalog) CreateObject(class string, v object.Value) (storage.OID, error) {
	cl, err := c.Class(class)
	if err != nil {
		return storage.NilOID, err
	}
	if !cl.IsClass {
		return storage.NilOID, fmt.Errorf("catalog: %s is a type; only classes have extents", class)
	}
	full, err := c.fullTuple(class)
	if err != nil {
		return storage.NilOID, err
	}
	if err := full.Check(v); err != nil {
		return storage.NilOID, err
	}
	var oid storage.OID
	if err := c.write('c', cl, object.Value{}, v, func() (err error) {
		oid, err = c.store.InsertExtent(cl.extent, encodeObject(cl.ID, v))
		return err
	}); err != nil {
		return storage.NilOID, err
	}
	if err := c.indexInsert(class, v, oid); err != nil {
		return storage.NilOID, err
	}
	if c.mutObs != nil {
		if err := c.mutObs('c', class, oid, object.Value{}, v); err != nil {
			return storage.NilOID, err
		}
	}
	return oid, nil
}

// fullTuple builds the tuple type of the class including inherited fields.
func (c *Catalog) fullTuple(class string) (*object.Type, error) {
	attrs, err := c.AllAttributes(class)
	if err != nil {
		return nil, err
	}
	return &object.Type{Kind: object.KindTuple, Fields: attrs, Name: class}, nil
}

// SetObjectCache attaches a decoded-object cache consulted by GetObject and
// GetObjects. Install once at open time, before the catalog is shared
// across goroutines. The store's invalidation hook (kernel.Open wires it)
// keeps the cache coherent with Update/Delete.
func (c *Catalog) SetObjectCache(oc *objcache.Cache) { c.ocache = oc }

// ObjectCache returns the attached decoded-object cache, nil when disabled.
func (c *Catalog) ObjectCache() *objcache.Cache { return c.ocache }

// SetAccessObserver attaches the reference-traversal observation hook fired
// by GetObjects with its request-ordered input batch. Install once at open
// time, before the catalog is shared; nil detaches.
func (c *Catalog) SetAccessObserver(obs AccessObserver) { c.accObs = obs }

// SetStatsObserver attaches the statistics delta hook (see StatsObserver).
// Install once at open time, before the catalog is shared; nil detaches.
func (c *Catalog) SetStatsObserver(obs StatsObserver) { c.statsObs = obs }

// write applies one store change to the class's extent inside the class's
// write section; when it succeeds the statistics observer sees the change
// and then the mutation counter moves.
func (c *Catalog) write(op byte, cl *Class, old, new object.Value, change func() error) error {
	cl.writers.RLock()
	defer cl.writers.RUnlock()
	if err := change(); err != nil {
		return err
	}
	if c.statsObs != nil {
		c.statsObs(op, cl, old, new)
	}
	cl.mutations.Add(1)
	return nil
}

// SetMutationObserver attaches the object-mutation hook fired by
// CreateObject, UpdateObject and DeleteObject after the store change is
// applied. Install once at open time, before the catalog is shared; nil
// detaches.
func (c *Catalog) SetMutationObserver(obs MutationObserver) { c.mutObs = obs }

// GetObject dereferences an OID — the algebra's Deref(oid) — returning the
// stored value and the name of its class (TypeId/typeName composition).
// With an object cache attached a hit skips the page fetch and the decode;
// the returned value then shares the cache's backing slices and must be
// treated as immutable (Clone before mutating).
func (c *Catalog) GetObject(oid storage.OID) (object.Value, string, error) {
	if c.ocache != nil {
		if v, name, ok := c.ocache.Get(oid); ok {
			return v, name, nil
		}
	}
	var token uint64
	if c.ocache != nil {
		// The epoch token must predate the store read: an Update that slips
		// between the read and the Put bumps it and the Put is dropped.
		token = c.ocache.BeginFetch(oid)
	}
	data, err := c.store.Get(oid)
	if err != nil {
		return object.Null, "", err
	}
	cl, v, err := c.decodeObject(data)
	if err != nil {
		return object.Null, "", err
	}
	name := cl.Name
	if c.ocache != nil {
		c.ocache.Put(token, oid, v, name, len(data))
	}
	return v, name, nil
}

// GetObjects dereferences a batch of OIDs: cache hits are filled directly,
// the misses go through the store's page-ordered FetchBatch (each distinct
// page fetched once, readahead overlapping the loads), and every decoded
// miss is installed in the cache. Results are parallel to the input; the
// same immutability contract as GetObject applies.
func (c *Catalog) GetObjects(oids []storage.OID) ([]object.Value, []string, error) {
	if c.accObs != nil {
		// Observe the REQUEST order, before cache filtering: co-access
		// affinity is about which objects a traversal touches together, and
		// cache hits are exactly the objects hot enough to cluster around.
		c.accObs(oids)
	}
	vals := make([]object.Value, len(oids))
	names := make([]string, len(oids))
	var missIdx []int
	for i, oid := range oids {
		if c.ocache != nil {
			if v, name, ok := c.ocache.Get(oid); ok {
				vals[i], names[i] = v, name
				continue
			}
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return vals, names, nil
	}
	missOIDs := make([]storage.OID, len(missIdx))
	tokens := make([]uint64, len(missIdx))
	for j, i := range missIdx {
		missOIDs[j] = oids[i]
		if c.ocache != nil {
			tokens[j] = c.ocache.BeginFetch(oids[i])
		}
	}
	datas, err := c.store.FetchBatch(missOIDs)
	if err != nil {
		return nil, nil, err
	}
	for j, i := range missIdx {
		cl, v, err := c.decodeObject(datas[j])
		if err != nil {
			return nil, nil, err
		}
		name := cl.Name
		vals[i], names[i] = v, name
		if c.ocache != nil {
			c.ocache.Put(tokens[j], oids[i], v, name, len(datas[j]))
		}
	}
	return vals, names, nil
}

// PreloadObjects pins, into p, the pages GetObjects(oids) would read: the
// records the object cache does not hold, in the store's FetchBatch page
// order. The parallel executor calls it under its task-claim lock so each
// disk is charged in task order (see storage.Preload).
func (c *Catalog) PreloadObjects(p *storage.Preload, oids []storage.OID) error {
	if c.ocache != nil {
		miss := make([]storage.OID, 0, len(oids))
		for _, oid := range oids {
			if !c.ocache.Contains(oid) {
				miss = append(miss, oid)
			}
		}
		oids = miss
	}
	return c.store.PreloadBatch(p, oids)
}

// Resolver returns an object.Resolver over this catalog for deep equality.
func (c *Catalog) Resolver() object.Resolver {
	return func(oid storage.OID) (object.Value, error) {
		v, _, err := c.GetObject(oid)
		return v, err
	}
}

// UpdateObject replaces the object's value in place (stable OID), keeping
// indexes in sync. Only the indexes whose key the update changes are
// touched; an entry whose key stays keeps its place among its duplicates.
func (c *Catalog) UpdateObject(oid storage.OID, v object.Value) error {
	old, class, err := c.GetObject(oid)
	if err != nil {
		return err
	}
	full, err := c.fullTuple(class)
	if err != nil {
		return err
	}
	if err := full.Check(v); err != nil {
		return err
	}
	cl, err := c.Class(class)
	if err != nil {
		return err
	}
	var changed []*Index
	for _, ix := range c.applicableIndexes(class) {
		same, err := ix.sameKey(old, v)
		if err != nil {
			return err
		}
		if !same {
			changed = append(changed, ix)
		}
	}
	for _, ix := range changed {
		if err := ix.remove(old, oid); err != nil {
			return err
		}
	}
	if err := c.write('u', cl, old, v, func() error {
		return c.store.Update(oid, encodeObject(cl.ID, v))
	}); err != nil {
		return err
	}
	for _, ix := range changed {
		if err := ix.insert(v, oid); err != nil {
			return err
		}
	}
	if c.mutObs != nil {
		return c.mutObs('u', class, oid, old, v)
	}
	return nil
}

// DeleteObject removes the object from its extent and indexes.
func (c *Catalog) DeleteObject(oid storage.OID) error {
	old, class, err := c.GetObject(oid)
	if err != nil {
		return err
	}
	cl, err := c.Class(class)
	if err != nil {
		return err
	}
	if err := c.indexDelete(class, old, oid); err != nil {
		return err
	}
	if err := c.write('d', cl, old, object.Value{}, func() error {
		return c.store.Delete(oid)
	}); err != nil {
		return err
	}
	if c.mutObs != nil {
		return c.mutObs('d', class, oid, old, object.Value{})
	}
	return nil
}

// ScanExtent iterates the direct extent of one class (no subclasses),
// calling fn with each object's OID and value.
func (c *Catalog) ScanExtent(class string, fn func(storage.OID, object.Value) bool) error {
	cl, err := c.Class(class)
	if err != nil {
		return err
	}
	if cl.extent == nil {
		return fmt.Errorf("catalog: %s has no extent", class)
	}
	var derr error
	err = c.store.ScanExtent(cl.extent, func(oid storage.OID, data []byte) bool {
		_, v, err := c.decodeObject(data)
		if err != nil {
			derr = err
			return false
		}
		return fn(oid, v)
	})
	if derr != nil {
		return derr
	}
	return err
}

// ScanRecords iterates the direct extent of one class like ScanExtent but
// without decoding: fn receives each object's encoded value (object.Encode
// form, the class header stripped), valid only during the call. Callers that
// need only record sizes skip the decode; the others Unmarshal what they use.
func (c *Catalog) ScanRecords(class string, fn func(oid storage.OID, value []byte) bool) error {
	cl, err := c.Class(class)
	if err != nil {
		return err
	}
	if cl.extent == nil {
		return fmt.Errorf("catalog: %s has no extent", class)
	}
	var derr error
	err = c.store.ScanExtent(cl.extent, func(oid storage.OID, data []byte) bool {
		_, n := binary.Uvarint(data)
		if n <= 0 {
			derr = fmt.Errorf("catalog: corrupt object header")
			return false
		}
		return fn(oid, data[n:])
	})
	if derr != nil {
		return derr
	}
	return err
}

// ScanClosure iterates the extents of the class and all its subclasses —
// the IS-A semantics of "FROM EVERY C" — excluding any classes in minus
// (the paper's "Automobile - JapaneseAuto" FROM-clause operator). Excluding
// a class excludes its whole subtree.
func (c *Catalog) ScanClosure(class string, minus []string, fn func(storage.OID, object.Value) bool) error {
	closure, err := c.Closure(class)
	if err != nil {
		return err
	}
	excluded := map[string]bool{}
	for _, m := range minus {
		sub, err := c.Closure(m)
		if err != nil {
			return err
		}
		for _, s := range sub {
			excluded[s] = true
		}
	}
	stop := false
	for _, name := range closure {
		if excluded[name] || stop {
			continue
		}
		if err := c.ScanExtent(name, func(oid storage.OID, v object.Value) bool {
			if !fn(oid, v) {
				stop = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
	}
	return nil
}

// ExtentCount returns |C| for the class's direct extent.
func (c *Catalog) ExtentCount(class string) (int, error) {
	cl, err := c.Class(class)
	if err != nil {
		return 0, err
	}
	if cl.extent == nil {
		return 0, nil
	}
	return cl.extent.NumRecords(), nil
}

// ExtentPages returns nbpages(C) for the class's direct extent.
func (c *Catalog) ExtentPages(class string) (int, error) {
	cl, err := c.Class(class)
	if err != nil {
		return 0, err
	}
	if cl.extent == nil {
		return 0, nil
	}
	return cl.extent.NumPages(), nil
}

// ExtentShardPages returns the class's per-shard data-page counts, indexed
// by shard id (a one-element slice on a single store). The statistics
// collector feeds these to the cost model so partitioned scans and
// reference fetches are priced per shard.
func (c *Catalog) ExtentShardPages(class string) ([]int, error) {
	cl, err := c.Class(class)
	if err != nil {
		return nil, err
	}
	if cl.extent == nil {
		return nil, nil
	}
	return cl.extent.PartPages(), nil
}
