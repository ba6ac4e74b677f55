// Package stats collects the cost-model parameters of Table 8 from a live
// database: |C|, nbpages(C), size(C), notnull(A,C), fan(A,C,D),
// totref(A,C,D) (totlinks and hitprb derive from these), and dist/max/min
// for atomic attributes. The optimizer reads the result through the cost
// package; the moodbench tool prints it back as the paper's Tables 13–15.
package stats

import (
	"sync"
	"sync/atomic"

	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/object"
	"mood/internal/storage"
)

// Collect scans every class extent once and assembles the statistics base.
// Attributes are attributed to the class that declares them; inherited
// attributes therefore resolve through the declaring superclass, and
// instances of subclasses contribute to the superclass's statistics (IS-A
// semantics: an Automobile is a Vehicle).
func Collect(cat *catalog.Catalog, disk cost.Disk) (*cost.Stats, error) {
	return NewBase(cat, disk).Collect()
}

// Base is the statistics base kept per class. Every class has one entry:
// its ClassStats from its own extent, and the statistics of the attributes
// it declares, aggregated over its IS-A closure.
//
// An entry starts counts-only: the Table 8 figures of its last scan. Once a
// write to its closure has been seen (catalog.Class.Mutations moved), the
// next Collect re-scans the closure once and keeps the aggregators, and from
// then on every write applies its delta to them (Apply, the catalog's
// statistics observer): such an entry is tracked, and a write to it costs
// the next Collect no scan. A class definition or drop
// (catalog.SchemaVersion) and Reset drop every entry back to a full,
// counts-only scan.
//
// Collect, Stale and Reset are not safe for concurrent use with each
// other; Apply may run concurrently with all of them.
type Base struct {
	cat  *catalog.Catalog
	disk cost.Disk

	lay  atomic.Pointer[layout] // nil until the first Collect and after Reset
	seen []uint64               // lay.classes[i].Mutations() at the last Collect
}

// layout is the class set of one schema version and its entries. It is
// immutable once published, apart from the entries' guarded state.
type layout struct {
	schema  uint64
	classes []*catalog.Class // every class, in ID order
	pos     map[*catalog.Class]int
	entries []*entry // parallel to classes
}

// entry is one class's share of the base. The index slices point into
// layout.classes.
type entry struct {
	closure   []int   // the class and its transitive subclasses
	ancestors []int   // every class on its IS-A chain, itself included
	targets   [][]int // per link: the closure of its target class

	mu      sync.Mutex // guards the rest once the entry is published
	tracked bool       // aggs are kept and maintained by deltas
	bytes   int        // summed record lengths of the class's own extent
	aggs    []*attrAgg // tracked: one per declared attribute
	enc     []byte     // tracked: scratch encoding for record lengths
	attrs   []cost.AttrStats
	links   []cost.LinkStats // TargetCard is filled in at assembly
}

// NewBase returns an empty base over the catalog; the first Collect scans
// every extent.
func NewBase(cat *catalog.Catalog, disk cost.Disk) *Base {
	return &Base{cat: cat, disk: disk}
}

// Reset drops every entry, so the next Collect scans every extent again.
func (b *Base) Reset() { b.lay.Store(nil) }

// Stale reports whether Collect would return a different base. It is a
// loop of atomic loads: no lock, no allocation.
func (b *Base) Stale() bool {
	l := b.lay.Load()
	if l == nil || b.cat.SchemaVersion() != l.schema {
		return true
	}
	for i, cl := range l.classes {
		if cl.Mutations() != b.seen[i] {
			return true
		}
	}
	return false
}

// Collect brings the entries up to date and assembles a fresh statistics
// base from all of them. After a write only counts-only entries whose
// closure it touched are scanned; tracked entries already hold the delta.
func (b *Base) Collect() (*cost.Stats, error) {
	l, err := b.collect()
	if err != nil {
		b.Reset()
		return nil, err
	}
	return b.assemble(l), nil
}

func (b *Base) collect() (*layout, error) {
	l := b.lay.Load()
	full := l == nil || b.cat.SchemaVersion() != l.schema
	if full {
		var err error
		if l, err = b.layout(); err != nil {
			return nil, err
		}
		b.lay.Store(l)
	}
	// Read every counter before any scan: a write that lands during an
	// unguarded scan moves its counter past the value recorded here, and
	// the next Stale sees it.
	n := len(l.classes)
	cur := make([]uint64, n)
	for i, cl := range l.classes {
		cur[i] = cl.Mutations()
	}
	stale := make([]bool, n)
	rescan := false
	for i := range l.classes {
		if !full && cur[i] == b.seen[i] {
			continue
		}
		for _, a := range l.entries[i].ancestors {
			if full || !l.entries[a].tracked {
				stale[a], rescan = true, true
			}
		}
	}
	if rescan {
		if err := b.scan(l, stale, !full); err != nil {
			return nil, err
		}
	}
	b.seen = cur
	return l, nil
}

// scan re-collects the stale entries. Each extent their closures cover is
// scanned once: every record feeds its own class's byte sum (from the
// record length, without decoding) and, decoded once, the aggregators of
// every stale class on its IS-A chain.
//
// With track set the stale entries keep their aggregators and are
// maintained by deltas afterwards, so the scan must see exactly the writes
// whose deltas it does not get: it holds every scanned class's writers
// off (Class.ExcludeWriters), in ID order, until the entries are tracked.
// A write that finished before found the entry untracked and has its record
// scanned; one that starts after applies its delta to the tracked entry.
func (b *Base) scan(l *layout, stale []bool, track bool) error {
	n := len(l.classes)
	scan := make([]bool, n)
	aggs := make([][]*attrAgg, n)
	for i, e := range l.entries {
		if !stale[i] {
			continue
		}
		for _, c := range e.closure {
			scan[c] = true
		}
		fields := l.classes[i].Tuple.Fields
		aggs[i] = make([]*attrAgg, len(fields))
		for j, f := range fields {
			aggs[i][j] = newAttrAgg(f)
		}
	}
	if track {
		for x, cl := range l.classes {
			if scan[x] {
				cl.ExcludeWriters()
				defer cl.AdmitWriters()
			}
		}
	}

	bytes := make([]int, n)
	for x, cl := range l.classes {
		if !scan[x] {
			continue
		}
		var feed []*attrAgg
		for _, a := range l.entries[x].ancestors {
			if stale[a] {
				feed = append(feed, aggs[a]...)
			}
		}
		var derr error
		if err := b.cat.ScanRecords(cl.Name, func(_ storage.OID, data []byte) bool {
			bytes[x] += len(data)
			if len(feed) == 0 {
				return true
			}
			v, err := object.Unmarshal(data)
			if err != nil {
				derr = err
				return false
			}
			for _, a := range feed {
				a.add(v)
			}
			return true
		}); err != nil {
			return err
		}
		if derr != nil {
			return derr
		}
	}

	for i, e := range l.entries {
		if !stale[i] {
			continue
		}
		e.mu.Lock()
		e.bytes = bytes[i]
		e.tracked = track
		if track {
			e.aggs = aggs[i]
		} else {
			e.attrs, e.links = attrStats(l.classes[i].Name, aggs[i])
		}
		e.mu.Unlock()
	}
	return nil
}

// Apply is the catalog's statistics observer: it applies one object
// mutation of class cl (op 'c', 'u' or 'd'; old and new as for
// catalog.MutationObserver) to every tracked entry on cl's IS-A chain.
// Counts-only entries are left alone: the write moves cl's counter, and the
// next Collect re-scans them.
func (b *Base) Apply(op byte, cl *catalog.Class, old, new object.Value) {
	l := b.lay.Load()
	if l == nil {
		return
	}
	x, ok := l.pos[cl]
	if !ok {
		return
	}
	for _, a := range l.entries[x].ancestors {
		e := l.entries[a]
		e.mu.Lock()
		if e.tracked {
			// Add before remove: an update that raises the maximum (or
			// lowers the minimum) then never empties the extreme's count,
			// so the extremes need no search over the remaining values.
			for _, g := range e.aggs {
				if op != 'd' {
					g.add(new)
				}
				if op != 'c' {
					g.remove(old)
				}
			}
			if a == x {
				if op != 'd' {
					e.enc = object.Encode(e.enc[:0], new)
					e.bytes += len(e.enc)
				}
				if op != 'c' {
					e.enc = object.Encode(e.enc[:0], old)
					e.bytes -= len(e.enc)
				}
			}
		}
		e.mu.Unlock()
	}
}

// layout lists the classes and resolves their closures, IS-A chains and
// link targets to positions; every entry starts empty and counts-only.
func (b *Base) layout() (*layout, error) {
	l := &layout{schema: b.cat.SchemaVersion(), pos: map[*catalog.Class]int{}}
	byName := map[string]int{}
	for _, c := range b.cat.Classes() {
		if c.IsClass {
			byName[c.Name] = len(l.classes)
			l.pos[c] = len(l.classes)
			l.classes = append(l.classes, c)
		}
	}
	closure := func(name string) ([]int, error) {
		names, err := b.cat.Closure(name)
		if err != nil {
			return nil, err
		}
		var out []int
		for _, n := range names {
			if p, ok := byName[n]; ok {
				out = append(out, p)
			}
		}
		return out, nil
	}
	l.entries = make([]*entry, len(l.classes))
	for i, c := range l.classes {
		e := &entry{}
		l.entries[i] = e
		var err error
		if e.closure, err = closure(c.Name); err != nil {
			return nil, err
		}
		for _, f := range c.Tuple.Fields {
			t := refTarget(f)
			if t == "" {
				continue
			}
			// |D| counts the closure: an attribute typed REFERENCE(D) may
			// reference any subclass instance.
			var tc []int
			if _, ok := byName[t]; ok {
				if tc, err = closure(t); err != nil {
					return nil, err
				}
			}
			e.targets = append(e.targets, tc)
		}
	}
	for i, e := range l.entries {
		for _, c := range e.closure {
			l.entries[c].ancestors = append(l.entries[c].ancestors, i)
		}
	}
	return l, nil
}

// assemble builds a fresh statistics base from the entries. |C|, nbpages
// and the per-shard pages are the extents' own counters.
func (b *Base) assemble(l *layout) *cost.Stats {
	s := cost.NewStats(b.disk)
	cards := make([]int, len(l.classes))
	for i, cl := range l.classes {
		cards[i] = cl.Extent().NumRecords()
	}
	for i, e := range l.entries {
		ext := l.classes[i].Extent()
		cs := cost.ClassStats{Name: l.classes[i].Name, Card: cards[i], NbPages: ext.NumPages()}
		// On a sharded store each extent part is a separate file; the
		// per-part split feeds the cost model's per-shard scan and Cardenas
		// estimates.
		if sp := ext.PartPages(); len(sp) > 1 {
			cs.ShardPages = sp
		}
		e.mu.Lock()
		if cs.Card > 0 {
			cs.Size = e.bytes / cs.Card
		}
		attrs, links := e.attrs, e.links
		if e.tracked {
			attrs, links = attrStats(cs.Name, e.aggs)
		}
		e.mu.Unlock()
		s.SetClass(cs)
		for _, a := range attrs {
			s.SetAttr(a)
		}
		for j, lk := range links {
			card := 0
			for _, t := range e.targets[j] {
				card += cards[t]
			}
			lk.TargetCard = float64(card)
			s.SetLink(lk)
		}
	}
	return s
}

// attrStats renders a class's aggregators as its Table 8 entries.
func attrStats(class string, aggs []*attrAgg) (attrs []cost.AttrStats, links []cost.LinkStats) {
	for _, a := range aggs {
		if a.target != "" {
			links = append(links, a.linkStats(class))
		} else {
			attrs = append(attrs, a.attrStats(class))
		}
	}
	return attrs, links
}

// refTarget returns the class a reference (or set/list-of-reference)
// attribute points to, "" for an atomic attribute.
func refTarget(f object.Field) string {
	switch f.Type.Kind {
	case object.KindReference:
		return f.Type.Target
	case object.KindSet, object.KindList:
		if f.Type.Elem != nil && f.Type.Elem.Kind == object.KindReference {
			return f.Type.Elem.Target
		}
	}
	return ""
}

// attrAgg accumulates one declared attribute over a class's closure. Every
// figure is a count, or the number of keys of a value → count map, so a
// value is removed exactly as it was added.
type attrAgg struct {
	name      string
	target    string // reference target class ("" for atomic)
	rows      int
	nonNull   int
	totalRefs int
	refs      map[storage.OID]int // referenced object → references to it
	vals      map[string]int      // rendered atomic value → objects holding it
	nums      map[float64]int     // numeric value → objects holding it
	max, min  float64             // over the keys of nums; 0 when it is empty
}

func newAttrAgg(f object.Field) *attrAgg {
	return &attrAgg{
		name: f.Name, target: refTarget(f),
		refs: map[storage.OID]int{}, vals: map[string]int{}, nums: map[float64]int{},
	}
}

// attr returns the attribute's value in v; ok is false when it is null (a
// nil reference is a null attribute for notnull(A,C)).
func (a *attrAgg) attr(v object.Value) (object.Value, bool) {
	av, ok := v.Field(a.name)
	if !ok || av.IsNull() || av.Kind == object.KindReference && av.Ref.IsNil() {
		return av, false
	}
	return av, true
}

func (a *attrAgg) add(v object.Value) {
	a.rows++
	av, ok := a.attr(v)
	if !ok {
		return
	}
	a.nonNull++
	switch av.Kind {
	case object.KindReference:
		a.totalRefs++
		a.refs[av.Ref]++
	case object.KindSet, object.KindList:
		for _, e := range av.Elems {
			if e.Kind == object.KindReference && !e.Ref.IsNil() {
				a.totalRefs++
				a.refs[e.Ref]++
			}
		}
	default:
		a.vals[av.String()]++
		if n, ok := av.AsFloat(); ok {
			if len(a.nums) == 0 || n > a.max {
				a.max = n
			}
			if len(a.nums) == 0 || n < a.min {
				a.min = n
			}
			a.nums[n]++
		}
	}
}

// remove takes back an add of v.
func (a *attrAgg) remove(v object.Value) {
	a.rows--
	av, ok := a.attr(v)
	if !ok {
		return
	}
	a.nonNull--
	switch av.Kind {
	case object.KindReference:
		a.totalRefs--
		decr(a.refs, av.Ref)
	case object.KindSet, object.KindList:
		for _, e := range av.Elems {
			if e.Kind == object.KindReference && !e.Ref.IsNil() {
				a.totalRefs--
				decr(a.refs, e.Ref)
			}
		}
	default:
		decr(a.vals, av.String())
		if n, ok := av.AsFloat(); ok && decr(a.nums, n) && (n == a.max || n == a.min) {
			// The extreme's last holder is gone: find the new extremes
			// among the remaining values.
			a.max, a.min = 0, 0
			first := true
			for k := range a.nums {
				if first || k > a.max {
					a.max = k
				}
				if first || k < a.min {
					a.min = k
				}
				first = false
			}
		}
	}
}

// decr drops one count of k and reports whether k's last count went.
func decr[K comparable](m map[K]int, k K) bool {
	if m[k]--; m[k] > 0 {
		return false
	}
	delete(m, k)
	return true
}

func (a *attrAgg) notNull() float64 {
	if a.rows == 0 {
		return 0
	}
	return float64(a.nonNull) / float64(a.rows)
}

func (a *attrAgg) linkStats(class string) cost.LinkStats {
	fan := 0.0
	if a.rows > 0 {
		fan = float64(a.totalRefs) / float64(a.rows)
	}
	return cost.LinkStats{
		Class:     class,
		Attribute: a.name,
		Target:    a.target,
		Fan:       fan,
		TotRef:    float64(len(a.refs)),
		NotNull:   a.notNull(),
	}
}

func (a *attrAgg) attrStats(class string) cost.AttrStats {
	return cost.AttrStats{
		Class:     class,
		Attribute: a.name,
		Dist:      len(a.vals),
		Max:       a.max,
		Min:       a.min,
		NotNull:   a.notNull(),
	}
}

// ClusterObs is one extent part's cumulative batch-fetch observation from
// the clustering tracer: over Runs sampled batch runs, Refs references
// resolved against the part landed on Pages distinct (post-forwarding)
// pages. The kernel converts the tracer's snapshot into this shape so the
// stats package stays decoupled from the tracer's types.
type ClusterObs struct {
	Shard int
	File  storage.FileID
	Runs  uint64
	Refs  uint64
	Pages uint64
}

// minClusterRefs is the evidence floor: below it the measured ratio is too
// noisy to override the Cardenas assumption.
const minClusterRefs = 32

// ApplyClusterFactors learns each class's ClusterFactor — measured distinct
// pages per batched reference fetch, relative to the Cardenas prediction —
// from the tracer's per-part observations, and writes it into the stats
// base. Classes without enough observed traffic keep ClusterFactor zero, so
// their estimates stay byte-exact to the paper's formulas.
func ApplyClusterFactors(s *cost.Stats, cat *catalog.Catalog, obs []ClusterObs) {
	if len(obs) == 0 {
		return
	}
	type partKey struct {
		shard int
		file  storage.FileID
	}
	byPart := make(map[partKey]ClusterObs, len(obs))
	for _, o := range obs {
		byPart[partKey{o.Shard, o.File}] = o
	}
	for _, cl := range cat.Classes() {
		if !cl.IsClass || cl.Extent() == nil {
			continue
		}
		cs, err := s.Class(cl.Name)
		if err != nil {
			continue
		}
		e := cl.Extent()
		pp := e.PartPages()
		var observed, predicted float64
		var refs uint64
		for part := 0; part < e.Parts() && part < len(pp); part++ {
			o, ok := byPart[partKey{part, e.PartFileID(part)}]
			if !ok || o.Runs == 0 || o.Refs == 0 {
				continue
			}
			// The tracer only keeps totals, so the prediction uses the
			// average batch size: Runs batches of Refs/Runs references each.
			observed += float64(o.Pages)
			predicted += float64(o.Runs) * cost.NbPg(pp[part], float64(o.Refs)/float64(o.Runs))
			refs += o.Refs
		}
		if refs < minClusterRefs || predicted <= 0 {
			continue
		}
		cf := observed / predicted
		// Clamp: a factor above 1 means placement is WORSE than uniform
		// (possible mid-reorganization); never let noise blow estimates up
		// past 2x or down below 1/20th.
		if cf > 2 {
			cf = 2
		}
		if cf < 0.05 {
			cf = 0.05
		}
		cs.ClusterFactor = cf
		s.SetClass(cs)
	}
}

// IndexStats extracts Table 9 parameters for every B+-tree index in the
// catalog, keyed "class.attribute".
func IndexStats(cat *catalog.Catalog) map[string]cost.BTreeStats {
	out := map[string]cost.BTreeStats{}
	for _, ix := range cat.Indexes() {
		if tr := ix.BTree(); tr != nil {
			st := tr.Stats()
			out[ix.Class+"."+ix.Attribute] = cost.BTreeStats{
				Order:   st.Order,
				Levels:  st.Levels,
				Leaves:  st.Leaves,
				KeySize: st.KeySize,
				Unique:  st.Unique,
			}
		}
	}
	return out
}
