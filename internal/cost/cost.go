// Package cost implements the MOOD query optimizer's cost model: the
// parameters of Tables 8–10, the Yao-style color approximation c(n,m,r) of
// [Cer 85], the set-overlap probability o(t,x,y), the selectivity formulas
// for atomic attributes and path expressions (Section 4.1), the costs of
// basic file operations (Section 5: SEQCOST, RNDCOST, INDCOST, RNGXCOST),
// and the costs of realizing an implicit join by forward traversal,
// backward traversal, binary join index, or pointer-based hash-partition
// join (Section 6).
package cost

import (
	"fmt"
	"math"
)

// Disk holds the physical parameters of Table 10. Times are in
// milliseconds, the block size in bytes.
type Disk struct {
	B   int     // block size
	BTT float64 // block transfer time
	EBT float64 // effective block transfer time
	R   float64 // average rotational latency
	S   float64 // average seek time
}

// DefaultDisk returns the same Salzberg-style parameterisation the storage
// simulator uses, keeping predicted and measured costs directly comparable.
func DefaultDisk() Disk {
	return Disk{B: 4096, BTT: 0.84, EBT: 0.84, R: 8.3, S: 16.0}
}

// SEQCOST is the cost of sequential access to b pages:
// SEQCOST(b) = s + r + b*ebt. (The paper notes that on ESM a file is stored
// as a B+ tree of pages, so a file scan may in fact cost RNDCOST; callers
// choose the formula that matches their layout.)
func (d Disk) SEQCOST(b float64) float64 {
	if b <= 0 {
		return 0
	}
	return d.S + d.R + b*d.EBT
}

// RNDCOST is the cost of random access to b pages:
// RNDCOST(b) = b * (s + r + btt).
func (d Disk) RNDCOST(b float64) float64 {
	if b <= 0 {
		return 0
	}
	return b * (d.S + d.R + d.BTT)
}

// CPUCost is the per-comparison CPU cost used by the backward-traversal
// formula. Disk arms of the era dwarf CPU time; the default is one
// microsecond.
const CPUCost = 0.001 // ms

// C is the paper's c(n,m,r): an approximation to the number of different
// colors selected when r objects are chosen out of n objects uniformly
// distributed over m colors [Cer 85]:
//
//	c(n,m,r) = r            if r < m/2
//	         = (r+m)/3      if m/2 <= r < 2m
//	         = m            if r >= 2m
func C(n, m, r float64) float64 {
	_ = n // n does not appear in the approximation; kept for the paper's signature
	switch {
	case m <= 0 || r <= 0:
		return 0
	case r < m/2:
		return r
	case r < 2*m:
		return (r + m) / 3
	default:
		return m
	}
}

// O is the paper's o(t,x,y): the probability that two sets with
// cardinalities x and y drawn from t distinct objects share at least one
// object,
//
//	o(t,x,y) = 1 - C(t-x, y)/C(t, y)
//
// with C the combination function. The quotient is computed as the product
// Π_{i=0..y-1} (t-x-i)/(t-i). Fractional cardinalities (which arise when
// k_m·hitprb < 1) are rounded up to one object — the rounding that
// reproduces the paper's printed 5.00e-5 for Example 8.1's P2.
func O(t, x, y float64) float64 {
	if t <= 0 || x <= 0 || y <= 0 {
		return 0
	}
	xi := math.Ceil(x)
	yi := math.Ceil(y)
	if xi+yi >= t {
		return 1
	}
	p := 1.0
	for i := 0.0; i < yi; i++ {
		p *= (t - xi - i) / (t - i)
	}
	return 1 - p
}

// --- Table 8 statistics -------------------------------------------------

// ClassStats holds the per-class parameters of Table 8.
type ClassStats struct {
	Name    string
	Card    int // |C|
	NbPages int // nbpages(C)
	Size    int // size(C), bytes per instance
	// ShardPages holds nbpages per extent part on a sharded store (nil or
	// single-entry on a single store, where NbPages alone applies). NbPages
	// is always the sum, so formulas that only need the total keep working
	// unchanged; ExtentScanCost and ShardNbPg consult the split.
	ShardPages []int
	// ClusterFactor is the measured page co-residency of batched reference
	// fetches into this class: observed distinct pages divided by the
	// Cardenas prediction, learned from the clustering tracer. Values below
	// 1 mean the class is physically clustered better than the uniform-
	// placement assumption (after reorganization, traversed objects share
	// pages), so batch-fetch estimates scale down by it. Zero — the default
	// whenever tracing is off — keeps every formula byte-exact to the paper.
	ClusterFactor float64
}

// LinkStats holds the per-reference-attribute parameters of Table 8 for an
// attribute A of class C referencing class D.
type LinkStats struct {
	Class      string  // C
	Attribute  string  // A
	Target     string  // D
	Fan        float64 // fan(A,C,D)
	TotRef     float64 // totref(A,C,D)
	NotNull    float64 // notnull(A,C)
	TargetCard float64 // |D|
}

// TotLinks returns totlinks(A,C,D) = fan(A,C,D) * |C|.
func (l LinkStats) TotLinks(cardC int) float64 { return l.Fan * float64(cardC) }

// HitPrb returns hitprb(A,C,D) = totref(A,C,D) / |D|.
func (l LinkStats) HitPrb() float64 {
	if l.TargetCard <= 0 {
		return 0
	}
	return l.TotRef / l.TargetCard
}

// AttrStats holds the atomic-attribute parameters of Table 8.
type AttrStats struct {
	Class     string
	Attribute string
	Dist      int     // dist(A,C)
	Max       float64 // max(A,C)
	Min       float64 // min(A,C)
	NotNull   float64 // notnull(A,C)
}

// BTreeStats holds the Table 9 parameters of a B+-tree index.
type BTreeStats struct {
	Order   int  // v(I)
	Levels  int  // level(I)
	Leaves  int  // leaves(I)
	KeySize int  // keysize(I)
	Unique  bool // unique(I)
}

// Stats is the statistics base the optimizer consults: one entry per class,
// per reference link, and per atomic attribute.
type Stats struct {
	Disk    Disk
	Classes map[string]ClassStats
	Links   map[string]LinkStats // key "C.A"
	Attrs   map[string]AttrStats // key "C.A"
	// ESMFiles reflects Section 5's observation: "in ESM, a file is stored
	// as a B+ tree and therefore the sequential access cost of a file is
	// equal to its random access cost." When set (the default), extent
	// scans are charged RNDCOST; the hash-partition join's passes over its
	// own temporary partition files remain sequential. This asymmetry is
	// what makes HASH_PARTITION the winning strategy against base extents
	// in the paper's Examples 8.1 and 8.2.
	ESMFiles bool
	// CacheHitRate is the observed object-cache hit rate in [0,1]; random
	// dereference costs scale by the miss fraction, since a cache hit skips
	// the page fetch entirely. Zero (the default, and the value when the
	// cache is off) reproduces the paper's formulas unchanged.
	CacheHitRate float64
	// BatchFetch marks the executor's page-ordered batch dereference: k
	// random fetches into a target class collapse onto its distinct pages
	// (the Cardenas estimate) instead of costing RNDCOST(k). False keeps
	// the original one-seek-per-reference model.
	BatchFetch bool
	// Fusion enables pricing the executor's collection-fused join (the Odra
	// fusion algorithm): the whole left input's references are deduplicated
	// globally and fetched in one page-ordered sweep, so the probe side pays
	// the random cost of the *distinct* targets rather than one dereference
	// per occurrence. False (the default) keeps BestJoin's choice set — and
	// therefore every paper example — byte-exact to the four strategies of
	// Sections 3.2 and 8.3.
	Fusion bool
}

// NewStats creates an empty statistics base over the disk parameters with
// ESM file semantics enabled.
func NewStats(d Disk) *Stats {
	return &Stats{
		Disk:     d,
		Classes:  make(map[string]ClassStats),
		Links:    make(map[string]LinkStats),
		Attrs:    make(map[string]AttrStats),
		ESMFiles: true,
	}
}

// ScanCost is the cost of scanning b extent pages: SEQCOST on contiguous
// files, RNDCOST under ESM file semantics.
func (s *Stats) ScanCost(b float64) float64 {
	if s.ESMFiles {
		return s.Disk.RNDCOST(b)
	}
	return s.Disk.SEQCOST(b)
}

// ExtentScanCost is the cost of scanning a class's full extent. On a single
// store it is exactly ScanCost(nbpages(C)); on a sharded store each part is
// its own ESM file, so the scan pays per-part: Σ_i ScanCost(p_i).
func (s *Stats) ExtentScanCost(cs ClassStats) float64 {
	if len(cs.ShardPages) <= 1 {
		return s.ScanCost(float64(cs.NbPages))
	}
	total := 0.0
	for _, p := range cs.ShardPages {
		total += s.ScanCost(float64(p))
	}
	return total
}

// ShardNbPg is the Cardenas estimate over a possibly sharded extent: k
// objects spread across the parts in proportion to their pages, each part
// contributing nbpg(p_i, k_i) distinct pages. On a single store it reduces
// byte-exactly to NbPg(nbpages(C), k). A measured ClusterFactor scales the
// estimate — Cardenas assumes uniform placement, which a reorganized extent
// deliberately violates — clamped so at least one page is always charged.
func (s *Stats) ShardNbPg(cs ClassStats, k float64) float64 {
	var total float64
	if len(cs.ShardPages) <= 1 {
		total = NbPg(cs.NbPages, k)
	} else {
		for _, p := range cs.ShardPages {
			if cs.NbPages > 0 {
				total += NbPg(p, k*float64(p)/float64(cs.NbPages))
			}
		}
	}
	if cs.ClusterFactor > 0 && total > 0 {
		total *= cs.ClusterFactor
		if total < 1 {
			total = 1
		}
	}
	return total
}

// missFactor is the fraction of dereferences that actually reach the disk.
func (s *Stats) missFactor() float64 { return 1 - clamp01(s.CacheHitRate) }

// refFetchCost prices dereferencing k references through link ls: the miss
// fraction of RNDCOST(k), or — under the executor's batched fetch — of the
// random cost of the target's distinct pages those k references land on.
func (s *Stats) refFetchCost(ls LinkStats, k float64) float64 {
	if s.BatchFetch {
		if ds, err := s.Class(ls.Target); err == nil && ds.NbPages > 0 {
			return s.missFactor() * s.Disk.RNDCOST(s.ShardNbPg(ds, k))
		}
	}
	return s.missFactor() * s.Disk.RNDCOST(k)
}

func key(class, attr string) string { return class + "." + attr }

// SetClass records class statistics.
func (s *Stats) SetClass(cs ClassStats) { s.Classes[cs.Name] = cs }

// SetLink records link statistics for a reference attribute.
func (s *Stats) SetLink(ls LinkStats) { s.Links[key(ls.Class, ls.Attribute)] = ls }

// SetAttr records atomic attribute statistics.
func (s *Stats) SetAttr(as AttrStats) { s.Attrs[key(as.Class, as.Attribute)] = as }

// Class returns the statistics of a class.
func (s *Stats) Class(name string) (ClassStats, error) {
	cs, ok := s.Classes[name]
	if !ok {
		return ClassStats{}, fmt.Errorf("cost: no statistics for class %s", name)
	}
	return cs, nil
}

// Link returns the statistics of a reference attribute. Inherited
// attributes resolve if recorded under a superclass by the collector.
func (s *Stats) Link(class, attr string) (LinkStats, error) {
	ls, ok := s.Links[key(class, attr)]
	if !ok {
		return LinkStats{}, fmt.Errorf("cost: no link statistics for %s.%s", class, attr)
	}
	return ls, nil
}

// Attr returns the statistics of an atomic attribute.
func (s *Stats) Attr(class, attr string) (AttrStats, error) {
	as, ok := s.Attrs[key(class, attr)]
	if !ok {
		return AttrStats{}, fmt.Errorf("cost: no attribute statistics for %s.%s", class, attr)
	}
	return as, nil
}

// --- Section 4.1: selectivity of atomic attributes ----------------------

// CmpKind classifies a simple predicate's comparison for selectivity
// purposes.
type CmpKind uint8

// Comparison classes used by the selectivity formulas.
const (
	CmpEq CmpKind = iota
	CmpNe
	CmpGt // also >=
	CmpLt // also <=
	CmpBetween
)

// SelEq is f_s(s.A = constant) = 1 / dist(A,C).
func (a AttrStats) SelEq() float64 {
	if a.Dist <= 0 {
		return 1
	}
	return 1 / float64(a.Dist)
}

// SelGt is f_s(s.A > constant) = (max - c) / (max - min).
func (a AttrStats) SelGt(c float64) float64 {
	return clamp01(safeDiv(a.Max-c, a.Max-a.Min))
}

// SelLt is the mirror image for s.A < constant.
func (a AttrStats) SelLt(c float64) float64 {
	return clamp01(safeDiv(c-a.Min, a.Max-a.Min))
}

// SelBetween is f_s(s.A BETWEEN c1 AND c2) = (c2 - c1) / (max - min).
func (a AttrStats) SelBetween(c1, c2 float64) float64 {
	return clamp01(safeDiv(c2-c1, a.Max-a.Min))
}

// Selectivity dispatches on the comparison kind; constant2 is used only for
// BETWEEN.
func (a AttrStats) Selectivity(kind CmpKind, constant, constant2 float64) float64 {
	switch kind {
	case CmpEq:
		return a.SelEq()
	case CmpNe:
		return clamp01(1 - a.SelEq())
	case CmpGt:
		return a.SelGt(constant)
	case CmpLt:
		return a.SelLt(constant)
	case CmpBetween:
		return a.SelBetween(constant, constant2)
	}
	return 1
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// --- Section 4.1: selectivity of path expressions -----------------------

// PathHop describes one reference attribute A_i of class C_i along a path.
type PathHop struct {
	Class     string // C_i
	Attribute string // A_i
}

// Path describes a path-expression predicate p.A1.A2...Am θ c where A1..
// Am-1 are reference hops out of successive classes and Am is an atomic
// attribute of the final class.
type Path struct {
	Hops       []PathHop // reference hops C_1.A_1 ... C_{m-1}.A_{m-1}
	FinalClass string    // C_m
	FinalAttr  string    // A_m
}

// FRef computes fref(p.A1...Ai, k): the expected number of objects of class
// C_{i+1} reached by forward-traversing the first hops hops of the path
// starting from k objects of C_1:
//
//	fref(·, k) = k                                        for i = 0
//	fref(·, k) = c(totlinks_i, totref_i, fref_{i-1} * fan_i)  for i > 0
func (s *Stats) FRef(p Path, hops int, k float64) (float64, error) {
	cur := k
	for i := 0; i < hops; i++ {
		h := p.Hops[i]
		ls, err := s.Link(h.Class, h.Attribute)
		if err != nil {
			return 0, err
		}
		cs, err := s.Class(h.Class)
		if err != nil {
			return 0, err
		}
		cur = C(ls.TotLinks(cs.Card), ls.TotRef, cur*ls.Fan)
	}
	return cur, nil
}

// PathSelectivity computes f_s(p.A1.A2...Am θ c) per Section 4.1:
//
//	k_m = |C_m| * f_s(A_m θ c)
//	f_s = o(totref_{m-1}, fref(p.A1..A_{m-1}, 1), k_m * hitprb(A_{m-1}, C_{m-1}, C_m))
//
// kind/constant/constant2 describe the final atomic comparison.
func (s *Stats) PathSelectivity(p Path, kind CmpKind, constant, constant2 float64) (float64, error) {
	if len(p.Hops) == 0 {
		// Degenerate: plain atomic predicate.
		as, err := s.Attr(p.FinalClass, p.FinalAttr)
		if err != nil {
			return 0, err
		}
		return as.Selectivity(kind, constant, constant2), nil
	}
	as, err := s.Attr(p.FinalClass, p.FinalAttr)
	if err != nil {
		return 0, err
	}
	fs := as.Selectivity(kind, constant, constant2)
	cm, err := s.Class(p.FinalClass)
	if err != nil {
		return 0, err
	}
	km := float64(cm.Card) * fs

	last := p.Hops[len(p.Hops)-1]
	ls, err := s.Link(last.Class, last.Attribute)
	if err != nil {
		return 0, err
	}
	fref, err := s.FRef(p, len(p.Hops), 1)
	if err != nil {
		return 0, err
	}
	return O(ls.TotRef, fref, km*ls.HitPrb()), nil
}

// --- Section 5: cost of basic file operations ---------------------------

// INDCOST is the cost of accessing object identifiers for k random keys
// through a secondary B+-tree index I:
//
//	INDCOST(k) = ( Σ_{i=1..level} ⌈c(n_i, m_i, r_i)⌉ ) * RNDCOST(1)
//
// where n_i = leaves / (2v·ln2)^(i-2), m_i = leaves / (2v·ln2)^(i-1), and
// r_1 = k, r_i = c(n_{i-1}, m_{i-1}, r_{i-1}).
func (s *Stats) INDCOST(idx BTreeStats, k float64) float64 {
	if k <= 0 {
		return 0
	}
	fan := 2 * float64(idx.Order) * math.Ln2
	if fan < 2 {
		fan = 2
	}
	total := 0.0
	r := k
	leaves := float64(idx.Leaves)
	for i := 1; i <= idx.Levels; i++ {
		n := leaves / math.Pow(fan, float64(i-2))
		m := leaves / math.Pow(fan, float64(i-1))
		c := C(n, m, r)
		if c < 1 {
			c = 1 // at least the root page
		}
		total += math.Ceil(c)
		r = c
	}
	return total * s.Disk.RNDCOST(1)
}

// RNGXCOST is the cost of a range query through a B+-tree index:
//
//	RNGXCOST(fract) = fract * leaves(I) * (s + r + btt)
func (s *Stats) RNGXCOST(idx BTreeStats, fract float64) float64 {
	return clamp01(fract) * float64(idx.Leaves) * (s.Disk.S + s.Disk.R + s.Disk.BTT)
}

// NbPg is the Cardenas page estimate used throughout Section 6: the number
// of distinct pages among nbpages touched when k objects are picked:
//
//	nbpg = nbpages * (1 - (1 - 1/nbpages)^k)
func NbPg(nbpages int, k float64) float64 {
	if nbpages <= 0 || k <= 0 {
		return 0
	}
	np := float64(nbpages)
	return np * (1 - math.Pow(1-1/np, k))
}

// --- Section 6: cost of the implicit join C.A = D.self ------------------

// JoinMethod enumerates the four implicit-join strategies of Sections 3.2
// and 8.3, plus the collection-fused navigation join (FusionJoin) added on
// top of the paper's set.
type JoinMethod uint8

// Join strategies.
const (
	ForwardTraversal JoinMethod = iota
	BackwardTraversal
	BinaryJoinIndex
	HashPartition
	FusionJoin
)

func (m JoinMethod) String() string {
	switch m {
	case ForwardTraversal:
		return "FORWARD_TRAVERSAL"
	case BackwardTraversal:
		return "BACKWARD_TRAVERSAL"
	case BinaryJoinIndex:
		return "BINARY_JOIN_INDEX"
	case HashPartition:
		return "HASH_PARTITION"
	case FusionJoin:
		return "FUSION_JOIN"
	}
	return "?"
}

// JoinInput describes the implicit join of k_c objects of class C through
// reference attribute A with k_d objects of class D.
type JoinInput struct {
	Class     string // C
	Attribute string // A
	Kc        float64
	Kd        float64
	// CAccessed marks the k_c source objects as already in memory — a
	// temporary collection produced by an earlier selection or join. The
	// forward-traversal formula then drops its RNDCOST(nbpg_c) term. This
	// is what makes the optimizer chain FORWARD_TRAVERSAL joins off T1 in
	// the paper's Example 8.1 while using HASH_PARTITION against base
	// extents.
	CAccessed bool
	DAccessed bool        // D's pages already resident (backward traversal)
	BJIdx     *BTreeStats // binary join index, when one exists
	// FusionOK marks the join as shaped for the fusion operator: the probe
	// side must be a bare class bind (optionally under a selection), since
	// fusion never scans the target extent — it synthesizes the probe rows
	// from the fetched references directly.
	FusionOK bool
}

// ForwardCost is Section 6.1:
//
//	ftc = RNDCOST(nbpg_c) + RNDCOST(k_c * fan)
//	nbpg_c = nbpages(C) * (1 - (1 - 1/nbpages(C))^k_c)
//
// the worst case with no buffer hits on D.
func (s *Stats) ForwardCost(in JoinInput) (float64, error) {
	cs, err := s.Class(in.Class)
	if err != nil {
		return 0, err
	}
	ls, err := s.Link(in.Class, in.Attribute)
	if err != nil {
		return 0, err
	}
	srcCost := 0.0
	if !in.CAccessed {
		srcCost = s.Disk.RNDCOST(s.ShardNbPg(cs, in.Kc))
	}
	return srcCost + s.refFetchCost(ls, in.Kc*ls.Fan), nil
}

// BackwardCost is Section 6.2:
//
//	btc = SEQCOST(nbpages(C)) + k_c*fan*k_d*CPUCOST
//	      + SEQCOST(nbpages(D)) unless D was accessed previously
func (s *Stats) BackwardCost(in JoinInput) (float64, error) {
	cs, err := s.Class(in.Class)
	if err != nil {
		return 0, err
	}
	ls, err := s.Link(in.Class, in.Attribute)
	if err != nil {
		return 0, err
	}
	ds, err := s.Class(ls.Target)
	if err != nil {
		return 0, err
	}
	total := s.ExtentScanCost(cs) + in.Kc*ls.Fan*in.Kd*CPUCost
	if !in.DAccessed {
		total += s.ExtentScanCost(ds)
	}
	return total, nil
}

// BJICost is Section 6.3: bjc = INDCOST(k) through the binary join index.
func (s *Stats) BJICost(in JoinInput, k float64) (float64, error) {
	if in.BJIdx == nil {
		return math.Inf(1), nil
	}
	return s.INDCOST(*in.BJIdx, k), nil
}

// BJIJoinCost is what Algorithm 8.2 charges a join-index join: the probes
// of k keys, BJICost, plus the source fetch, BJISourceCost.
func (s *Stats) BJIJoinCost(in JoinInput, k float64) (float64, error) {
	c, err := s.BJICost(in, k)
	if err != nil {
		return 0, err
	}
	fetch, err := s.BJISourceCost(in)
	return c + fetch, err
}

// BJISourceCost prices the source objects a join-index join fetches when C
// was not accessed before: the join then probes backward from the k_d right
// objects and reads only their sources instead of C's extent,
//
//	RNDCOST(nbpg(C, k_src)),  k_src = min(k_c, k_c * fan * k_d / |D|)
//
// (the join-cardinality estimate), exactly as the forward formula charges
// RNDCOST(nbpg_c) for C's objects. Zero when C was accessed: the sources
// are then already in memory.
func (s *Stats) BJISourceCost(in JoinInput) (float64, error) {
	if in.CAccessed {
		return 0, nil
	}
	cs, err := s.Class(in.Class)
	if err != nil {
		return 0, err
	}
	ls, err := s.Link(in.Class, in.Attribute)
	if err != nil {
		return 0, err
	}
	src := in.Kc
	if ls.TargetCard > 0 {
		src = math.Min(src, in.Kc*ls.Fan*in.Kd/ls.TargetCard)
	}
	return s.Disk.RNDCOST(s.ShardNbPg(cs, src)), nil
}

// HashPartitionCost is Section 6.4's pointer-based hybrid hash join:
//
//	hhc = 3 * k_c/|C| * SEQCOST(nbpages(C)) + RNDCOST(nbpg)
//	nbpg = nbpages(D) * (1 - (1 - 1/nbpages(D))^α)
//	α   = c(|C|*fan, totref, k_c*fan)
func (s *Stats) HashPartitionCost(in JoinInput) (float64, error) {
	cs, err := s.Class(in.Class)
	if err != nil {
		return 0, err
	}
	ls, err := s.Link(in.Class, in.Attribute)
	if err != nil {
		return 0, err
	}
	ds, err := s.Class(ls.Target)
	if err != nil {
		return 0, err
	}
	alpha := C(float64(cs.Card)*ls.Fan, ls.TotRef, in.Kc*ls.Fan)
	nbpg := s.ShardNbPg(ds, alpha)
	frac := 1.0
	if cs.Card > 0 {
		frac = in.Kc / float64(cs.Card)
	}
	return 3*frac*s.Disk.SEQCOST(float64(cs.NbPages)) + s.missFactor()*s.Disk.RNDCOST(nbpg), nil
}

// FusionCost prices the collection-fused join: the left input's references
// are deduplicated globally (the same color estimate α the hash join uses
// for its probe side) and fetched in one page-ordered sweep over D's
// distinct pages, with no scan of D and no partition passes:
//
//	fc = RNDCOST(nbpg_c) + RNDCOST(nbpg(D, α)) + k_c*fan*CPUCOST
//	α  = c(|C|*fan, totref, k_c*fan)
//
// The first term drops when C was already accessed (exactly as in the
// forward formula); the CPU term charges the per-occurrence partition and
// dedup work, so fusion only beats forward traversal when reference sharing
// genuinely collapses the probe's page count.
func (s *Stats) FusionCost(in JoinInput) (float64, error) {
	cs, err := s.Class(in.Class)
	if err != nil {
		return 0, err
	}
	ls, err := s.Link(in.Class, in.Attribute)
	if err != nil {
		return 0, err
	}
	ds, err := s.Class(ls.Target)
	if err != nil {
		return 0, err
	}
	srcCost := 0.0
	if !in.CAccessed {
		srcCost = s.Disk.RNDCOST(s.ShardNbPg(cs, in.Kc))
	}
	alpha := C(float64(cs.Card)*ls.Fan, ls.TotRef, in.Kc*ls.Fan)
	return srcCost + s.missFactor()*s.Disk.RNDCOST(s.ShardNbPg(ds, alpha)) + in.Kc*ls.Fan*CPUCost, nil
}

// BestJoin evaluates all applicable strategies and returns the cheapest
// with its cost — the "minimum cost join technique among the four join
// algorithms" used by Algorithm 8.2. When the Fusion knob is on and the
// join is fusion-shaped, the fused navigation join competes as a fifth
// strategy; it is priced last with a strict comparison, so ties preserve
// the paper's choices.
func (s *Stats) BestJoin(in JoinInput) (JoinMethod, float64, error) {
	best := ForwardTraversal
	bestCost, err := s.ForwardCost(in)
	if err != nil {
		return 0, 0, err
	}
	if c, err := s.BackwardCost(in); err == nil && c < bestCost {
		best, bestCost = BackwardTraversal, c
	}
	if in.BJIdx != nil {
		k := in.Kc
		if in.Kd < k {
			k = in.Kd
		}
		if c, err := s.BJIJoinCost(in, k); err == nil && c < bestCost {
			best, bestCost = BinaryJoinIndex, c
		}
	}
	if c, err := s.HashPartitionCost(in); err == nil && c < bestCost {
		best, bestCost = HashPartition, c
	}
	if s.Fusion && in.FusionOK {
		if c, err := s.FusionCost(in); err == nil && c < bestCost {
			best, bestCost = FusionJoin, c
		}
	}
	return best, bestCost, nil
}

// PathTraversalCost is the forward-traversal cost F of evaluating a whole
// path expression starting from k objects of its first class: the Section
// 6.1 formula chained hop by hop — read the distinct pages of C_1 holding
// the k starting objects, then for each hop fetch the referenced objects of
// the next class at random:
//
//	F = RNDCOST(nbpg(C_1, k)) + Σ_i RNDCOST(fref_i * fan_i)
func (s *Stats) PathTraversalCost(p Path, k float64) (float64, error) {
	if len(p.Hops) == 0 {
		cs, err := s.Class(p.FinalClass)
		if err != nil {
			return 0, err
		}
		return s.Disk.SEQCOST(float64(cs.NbPages)), nil
	}
	first, err := s.Class(p.Hops[0].Class)
	if err != nil {
		return 0, err
	}
	total := s.Disk.RNDCOST(s.ShardNbPg(first, k))
	cur := k
	for i, h := range p.Hops {
		ls, err := s.Link(h.Class, h.Attribute)
		if err != nil {
			return 0, err
		}
		total += s.refFetchCost(ls, cur*ls.Fan)
		if cur, err = s.FRef(p, i+1, k); err != nil {
			return 0, err
		}
	}
	return total, nil
}
