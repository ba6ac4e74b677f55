// Package stats collects the cost-model parameters of Table 8 from a live
// database: |C|, nbpages(C), size(C), notnull(A,C), fan(A,C,D),
// totref(A,C,D) (totlinks and hitprb derive from these), and dist/max/min
// for atomic attributes. The optimizer reads the result through the cost
// package; the moodbench tool prints it back as the paper's Tables 13–15.
package stats

import (
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

// Base is the statistics base kept per class, so that a write costs a
// re-collection of only the classes it touched. Every class has one entry:
// its ClassStats from its own extent, and the statistics of the attributes
// it declares, aggregated over its IS-A closure. An entry is stale once a
// class in its closure has been mutated (catalog.Class.Mutations) since the
// counters were read before its scan; a class definition or drop
// (catalog.SchemaVersion) makes every entry stale. A Base is not safe for
// concurrent use.
type Base struct {
	cat  *catalog.Catalog
	disk cost.Disk

	built   bool
	schema  uint64           // SchemaVersion the layout was built at
	classes []*catalog.Class // every class, in ID order
	seen    []uint64         // classes[i].Mutations(), read before the last scan
	entries []entry          // parallel to classes
}

// entry is one class's share of the base. The index slices point into
// Base.classes.
type entry struct {
	closure   []int   // the class and its transitive subclasses
	ancestors []int   // every class on its IS-A chain, itself included
	targets   [][]int // per link: the closure of its target class

	cs    cost.ClassStats
	attrs []cost.AttrStats
	links []cost.LinkStats // TargetCard is filled in at assembly
}

// NewBase returns an empty base over the catalog; the first Collect scans
// every extent.
func NewBase(cat *catalog.Catalog, disk cost.Disk) *Base {
	return &Base{cat: cat, disk: disk}
}

// Reset drops every entry, so the next Collect scans every extent again.
func (b *Base) Reset() { b.built = false }

// Stale reports whether Collect would re-scan anything. It is a loop of
// atomic loads: no lock, no allocation.
func (b *Base) Stale() bool {
	if !b.built || b.cat.SchemaVersion() != b.schema {
		return true
	}
	for i, cl := range b.classes {
		if cl.Mutations() != b.seen[i] {
			return true
		}
	}
	return false
}

// Collect re-scans the stale entries and assembles a fresh statistics base
// from all of them. Each extent a stale entry's closure covers is scanned
// once: every object feeds its own class's size and the attribute
// aggregators of every stale class on its IS-A chain.
func (b *Base) Collect() (*cost.Stats, error) {
	if err := b.collect(); err != nil {
		b.built = false
		return nil, err
	}
	return b.assemble(), nil
}

func (b *Base) collect() error {
	full := !b.built || b.cat.SchemaVersion() != b.schema
	if full {
		if err := b.layout(); err != nil {
			return err
		}
	}
	// Read every counter before any scan: a write that lands during the
	// scan moves its counter past the value recorded here, and the next
	// Stale sees it.
	n := len(b.classes)
	cur := make([]uint64, n)
	for i, cl := range b.classes {
		cur[i] = cl.Mutations()
	}
	stale := make([]bool, n)
	for i := range b.classes {
		if full || cur[i] != b.seen[i] {
			for _, a := range b.entries[i].ancestors {
				stale[a] = true
			}
		}
	}
	scan := make([]bool, n)
	aggs := make([][]*attrAgg, n)
	for i, e := range b.entries {
		if !stale[i] {
			continue
		}
		for _, c := range e.closure {
			scan[c] = true
		}
		fields := b.classes[i].Tuple.Fields
		aggs[i] = make([]*attrAgg, len(fields))
		for j, f := range fields {
			aggs[i][j] = newAttrAgg(f)
		}
	}

	for x, cl := range b.classes {
		if !scan[x] {
			continue
		}
		var feed []*attrAgg
		for _, a := range b.entries[x].ancestors {
			if stale[a] {
				feed = append(feed, aggs[a]...)
			}
		}
		ext := cl.Extent()
		card, pages := ext.NumRecords(), ext.NumPages()
		var bytes int
		var derr error
		if err := b.cat.ScanRecords(cl.Name, func(_ storage.OID, data []byte) bool {
			bytes += len(data)
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
		if !stale[x] {
			continue
		}
		size := 0
		if card > 0 {
			size = bytes / card
		}
		cs := cost.ClassStats{Name: cl.Name, Card: card, NbPages: pages, Size: size}
		// On a sharded store each extent part is a separate file; the
		// per-part split feeds the cost model's per-shard scan and Cardenas
		// estimates.
		if sp := ext.PartPages(); len(sp) > 1 {
			cs.ShardPages = sp
		}
		b.entries[x].cs = cs
	}

	for i := range b.entries {
		if !stale[i] {
			continue
		}
		e, name := &b.entries[i], b.classes[i].Name
		e.attrs, e.links = e.attrs[:0], e.links[:0]
		for _, a := range aggs[i] {
			if a.target != "" {
				e.links = append(e.links, a.linkStats(name))
			} else {
				e.attrs = append(e.attrs, a.attrStats(name))
			}
		}
	}
	b.seen = cur
	b.built = true
	return nil
}

// layout lists the classes and resolves their closures, IS-A chains and
// link targets to positions, dropping every entry.
func (b *Base) layout() error {
	b.schema = b.cat.SchemaVersion()
	b.classes = b.classes[:0]
	pos := map[string]int{}
	for _, c := range b.cat.Classes() {
		if c.IsClass {
			pos[c.Name] = len(b.classes)
			b.classes = append(b.classes, c)
		}
	}
	closure := func(name string) ([]int, error) {
		names, err := b.cat.Closure(name)
		if err != nil {
			return nil, err
		}
		var out []int
		for _, n := range names {
			if p, ok := pos[n]; ok {
				out = append(out, p)
			}
		}
		return out, nil
	}
	b.entries = make([]entry, len(b.classes))
	for i, c := range b.classes {
		e := &b.entries[i]
		var err error
		if e.closure, err = closure(c.Name); err != nil {
			return err
		}
		for _, f := range c.Tuple.Fields {
			t := refTarget(f)
			if t == "" {
				continue
			}
			// |D| counts the closure: an attribute typed REFERENCE(D) may
			// reference any subclass instance.
			var tc []int
			if _, ok := pos[t]; ok {
				if tc, err = closure(t); err != nil {
					return err
				}
			}
			e.targets = append(e.targets, tc)
		}
	}
	for i := range b.entries {
		for _, c := range b.entries[i].closure {
			b.entries[c].ancestors = append(b.entries[c].ancestors, i)
		}
	}
	b.seen = make([]uint64, len(b.classes))
	return nil
}

// assemble builds a fresh statistics base from the entries.
func (b *Base) assemble() *cost.Stats {
	s := cost.NewStats(b.disk)
	for i := range b.entries {
		e := &b.entries[i]
		s.SetClass(e.cs)
		for _, a := range e.attrs {
			s.SetAttr(a)
		}
		for j, l := range e.links {
			card := 0
			for _, t := range e.targets[j] {
				card += b.entries[t].cs.Card
			}
			l.TargetCard = float64(card)
			s.SetLink(l)
		}
	}
	return s
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

// attrAgg accumulates one declared attribute over a class's closure.
type attrAgg struct {
	name        string
	target      string // reference target class ("" for atomic)
	rows        int
	nonNull     int
	totalRefs   int
	distinctRef map[storage.OID]struct{}
	distinctVal map[string]struct{}
	max, min    float64
	haveNum     bool
}

func newAttrAgg(f object.Field) *attrAgg {
	return &attrAgg{
		name: f.Name, target: refTarget(f),
		distinctRef: map[storage.OID]struct{}{},
		distinctVal: map[string]struct{}{},
	}
}

func (a *attrAgg) add(v object.Value) {
	a.rows++
	av, ok := v.Field(a.name)
	if !ok || av.IsNull() {
		return
	}
	// A nil reference is a null attribute for notnull(A,C).
	if av.Kind == object.KindReference && av.Ref.IsNil() {
		return
	}
	a.nonNull++
	switch av.Kind {
	case object.KindReference:
		a.totalRefs++
		a.distinctRef[av.Ref] = struct{}{}
	case object.KindSet, object.KindList:
		for _, e := range av.Elems {
			if e.Kind == object.KindReference && !e.Ref.IsNil() {
				a.totalRefs++
				a.distinctRef[e.Ref] = struct{}{}
			}
		}
	default:
		a.distinctVal[av.String()] = struct{}{}
		if n, ok := av.AsFloat(); ok {
			if !a.haveNum || n > a.max {
				a.max = n
			}
			if !a.haveNum || n < a.min {
				a.min = n
			}
			a.haveNum = true
		}
	}
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
		TotRef:    float64(len(a.distinctRef)),
		NotNull:   a.notNull(),
	}
}

func (a *attrAgg) attrStats(class string) cost.AttrStats {
	return cost.AttrStats{
		Class:     class,
		Attribute: a.name,
		Dist:      len(a.distinctVal),
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
