package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/sql"
)

// Optimizer builds access plans for MOODSQL queries over one catalog and
// statistics base.
type Optimizer struct {
	Cat   *catalog.Catalog
	Stats *cost.Stats
	// Parallelism is the degree-of-parallelism knob: when > 1, Optimize
	// wraps exchangeable operators in ExchangePlan nodes for that many
	// workers. Zero (the default) keeps every plan serial, so existing
	// single-threaded plans are byte-identical to the unparallelized ones.
	Parallelism int
	// ParallelMinPages gates parallelization on the cost model: only
	// operators whose estimated page footprint reaches this many pages are
	// exchanged. Zero means DefaultParallelMinPages; negative means no
	// threshold.
	ParallelMinPages float64
	// bjis registers available binary join indices by "Class.Attr" so the
	// join-method choice can consider bjc = INDCOST(k).
	bjis map[string]bjiEntry
	// ForceJoinMethod, when non-nil, overrides the cost-based join-method
	// choice with the given strategy wherever it is applicable (a forced
	// BINARY_JOIN_INDEX still needs a registered index, a forced
	// FUSION_JOIN a bind-shaped right side; inapplicable joins keep the
	// cost-based choice). Differential test harnesses use it to drive the
	// same query down every access path.
	ForceJoinMethod *cost.JoinMethod
}

type bjiEntry struct {
	name string
	st   cost.BTreeStats
}

// New creates an optimizer.
func New(cat *catalog.Catalog, st *cost.Stats) *Optimizer {
	return &Optimizer{Cat: cat, Stats: st, bjis: map[string]bjiEntry{}}
}

// RegisterBJI announces a binary join index on class.attr to the optimizer.
func (o *Optimizer) RegisterBJI(class, attr, name string, st cost.BTreeStats) {
	o.bjis[class+"."+attr] = bjiEntry{name: name, st: st}
}

// Explain records what the optimizer decided, mirroring the paper's
// dictionaries so Tables 11, 12 and 16 can be regenerated.
type Explain struct {
	Terms []TermExplain
}

// TermExplain is the per-AND-term record.
type TermExplain struct {
	Imm   map[string][]ImmSelInfo
	Paths []PathSelInfo // in Algorithm 8.1 execution order
	Joins []JoinPredInfo
}

// Optimize builds the access plan for a query: DNF of the WHERE clause, one
// sub-plan per AND-term (Section 7's processing order), UNION of the
// sub-plans, then GROUP BY/HAVING, projection and ORDER BY per Figure 7.1.
func (o *Optimizer) Optimize(q *sql.Select) (Plan, *Explain, error) {
	cls := &classifier{cat: o.Cat, stats: o.Stats, varClass: map[string]string{}}
	for _, fi := range q.From {
		if _, err := o.Cat.Class(fi.Class); err != nil {
			return nil, nil, err
		}
		if _, dup := cls.varClass[fi.Var]; dup {
			return nil, nil, fmt.Errorf("optimizer: duplicate range variable %s", fi.Var)
		}
		cls.varClass[fi.Var] = fi.Class
	}

	ex := &Explain{}
	var termPlans []Plan
	if q.Where == nil {
		plan, te, err := o.planTerm(q, cls, AndTerm{})
		if err != nil {
			return nil, nil, err
		}
		ex.Terms = append(ex.Terms, te)
		termPlans = append(termPlans, plan)
	} else {
		terms := ToDNF(q.Where)
		if len(terms) == 0 {
			// WHERE folds to FALSE: empty result, planned as an impossible
			// selection over the first FROM class.
			terms = []AndTerm{{falseConst()}}
		}
		for _, term := range terms {
			plan, te, err := o.planTerm(q, cls, term)
			if err != nil {
				return nil, nil, err
			}
			ex.Terms = append(ex.Terms, te)
			termPlans = append(termPlans, plan)
		}
	}

	var plan Plan
	if len(termPlans) == 1 {
		plan = termPlans[0]
	} else {
		card := 0.0
		for _, p := range termPlans {
			card += p.Card()
		}
		fromVars := make([]string, len(q.From))
		for i, fi := range q.From {
			fromVars[i] = fi.Var
		}
		plan = &UnionPlan{Inputs: termPlans, Vars: fromVars, card: card}
	}

	// Figure 7.1: ... -> GROUP BY -> HAVING -> SELECT (projection) ->
	// ORDER BY.
	hasAgg := false
	for _, p := range q.Projs {
		if p.Agg != sql.AggNone {
			hasAgg = true
		}
	}
	if len(q.GroupBy) > 0 || hasAgg {
		plan = &GroupPlan{Input: plan, By: q.GroupBy, Having: Simplify(orTrue(q.Having)), Projs: q.Projs, card: plan.Card() / 2}
		if q.Having == nil {
			plan.(*GroupPlan).Having = nil
		}
	} else {
		plan = &ProjectPlan{Input: plan, Items: q.Projs, card: plan.Card()}
		if q.Distinct {
			plan = &DupElimPlan{Input: plan, card: plan.Card()}
		}
	}
	if len(q.OrderBy) > 0 {
		plan = &SortPlan{Input: plan, Keys: q.OrderBy, card: plan.Card()}
	}
	if o.Parallelism > 1 {
		mp := o.ParallelMinPages
		if mp == 0 {
			mp = DefaultParallelMinPages
		}
		plan = Parallelize(plan, o.Parallelism, mp, o.Stats)
	}
	return plan, ex, nil
}

func orTrue(e expr.Expr) expr.Expr {
	if e == nil {
		return trueConst()
	}
	return e
}

// group is a set of range variables already joined into one plan.
type group struct {
	plan Plan
	vars map[string]bool
}

// planTerm builds the sub-access plan of one AND-term.
func (o *Optimizer) planTerm(q *sql.Select, cls *classifier, term AndTerm) (Plan, TermExplain, error) {
	te := TermExplain{}
	classified, err := cls.Classify(term)
	if err != nil {
		return nil, te, err
	}
	te.Imm = classified.Imm
	te.Joins = classified.Joins

	groups := map[string]*group{}
	for _, fi := range q.From {
		base := o.basePlan(fi, classified.Imm[fi.Var], classified.Other[fi.Var])
		groups[fi.Var] = &group{plan: base, vars: map[string]bool{fi.Var: true}}
	}

	// Algorithm 8.1: order ALL path selections of the term by F/(1-s)
	// (orderKey).
	var paths []PathSelInfo
	for _, ps := range classified.Paths {
		paths = append(paths, ps...)
	}
	keys := make([]float64, len(paths))
	order := make([]int, len(paths))
	for i, ps := range paths {
		keys[i], order[i] = o.orderKey(cls, ps), i
	}
	sort.SliceStable(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	te.Paths = make([]PathSelInfo, len(paths))
	for i, k := range order {
		te.Paths[i] = paths[k]
	}

	nameGen := newVarNamer(cls.varClass)
	for _, ps := range te.Paths {
		g := groups[ps.RangeVar]
		plan, err := o.expandPath(cls, g, ps, nameGen)
		if err != nil {
			return nil, te, err
		}
		g.plan = plan
	}

	// Explicit join predicates (path = var) connect variable groups.
	for _, jp := range classified.Joins {
		if err := o.applyJoinPred(cls, jp, groups, nameGen); err != nil {
			return nil, te, err
		}
	}

	// Merge remaining disjoint groups as Cartesian products (visible in the
	// plan as CROSS).
	ordered := make([]*group, 0, len(q.From))
	seen := map[*group]bool{}
	for _, fi := range q.From {
		g := groups[fi.Var]
		if !seen[g] {
			seen[g] = true
			ordered = append(ordered, g)
		}
	}
	plan := ordered[0].plan
	merged := ordered[0]
	for _, g := range ordered[1:] {
		plan = &CrossPlan{Left: plan, Right: g.plan, card: plan.Card() * g.plan.Card()}
		for v := range g.vars {
			merged.vars[v] = true
		}
		merged.plan = plan
	}

	// Residual predicates last.
	if len(classified.Residual) > 0 {
		pred := AndTerm(classified.Residual).Expr()
		plan = &SelectPlan{Input: plan, Pred: pred, card: plan.Card() / 2}
	}
	return plan, te, nil
}

// basePlan builds the access plan of one FROM range variable: §8.1's choice
// of indexes and ordering of atomic selections.
func (o *Optimizer) basePlan(fi sql.FromItem, imms []ImmSelInfo, others []OtherSelInfo) Plan {
	card := 1.0
	var nbpages float64
	var classStats cost.ClassStats
	if cs, err := o.Stats.Class(fi.Class); err == nil {
		classStats = cs
		card = float64(cs.Card)
		nbpages = float64(cs.NbPages)
	}

	// Index candidates, sorted ascending by cost_i (§8.1). Indexes cannot
	// serve a FROM clause with subclass exclusion (they cover the closure).
	var indexed []ImmSelInfo
	var rest []ImmSelInfo
	for _, im := range imms {
		if im.Index != nil && len(fi.Minus) == 0 && !math.IsInf(im.IndexedCost, 1) && im.IndexedCost < inf() {
			indexed = append(indexed, im)
		} else {
			rest = append(rest, im)
		}
	}
	sort.SliceStable(indexed, func(i, j int) bool { return indexed[i].IndexedCost < indexed[j].IndexedCost })

	// k = max number of indexes with Σ cost_i + RNDCOST(|C|·Π f_i) <
	// SCANCOST(nbpages(C)).
	k := 0
	sum := 0.0
	prod := 1.0
	// The full-scan alternative pays the sharded extent's per-part cost;
	// on a single store this is exactly ScanCost(nbpages(C)).
	scan := o.Stats.ExtentScanCost(classStats)
	if classStats.Name == "" {
		scan = o.Stats.ScanCost(nbpages)
	}
	for i := 0; i < len(indexed); i++ {
		sum += indexed[i].IndexedCost
		prod *= indexed[i].Selectivity
		if sum+o.Stats.Disk.RNDCOST(card*prod) < scan {
			k = i + 1
		}
	}

	var plan Plan
	selCard := card
	if k > 0 {
		var inputs []Plan
		for i := 0; i < k; i++ {
			im := indexed[i]
			selCard *= im.Selectivity
			inputs = append(inputs, &IndSelPlan{
				Class: fi.Class, Var: fi.Var, Every: fi.Every, Index: im.Index,
				Pred: algebra.SimplePredicate{
					Attribute: im.Simple.Path[0], Op: im.Op,
					Constant: im.Constant, Constant2: im.Constant2, Between: im.Between,
				},
				ConstParam: im.ConstParam, Const2Param: im.Const2Param,
				card: card * im.Selectivity,
			})
		}
		if len(inputs) == 1 {
			plan = inputs[0]
		} else {
			plan = &IntersectPlan{Inputs: inputs, card: selCard}
		}
		rest = append(rest, indexed[k:]...)
	} else {
		plan = &BindPlan{Class: fi.Class, Var: fi.Var, Minus: fi.Minus, Every: fi.Every, card: card}
		rest = append(rest, indexed...)
	}

	// Remaining predicates "sorted in increasing order of their estimated
	// selectivities and applied in this order" — the most selective first,
	// so short-circuit evaluation touches the fewest predicates per object.
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].Selectivity < rest[j].Selectivity })
	var preds []expr.Expr
	for _, im := range rest {
		preds = append(preds, im.Predicate)
		selCard *= im.Selectivity
	}
	for _, ot := range others {
		preds = append(preds, ot.Predicate)
		selCard *= defaultMethodSelectivity
	}
	if len(preds) > 0 {
		plan = &SelectPlan{Input: plan, Pred: AndTerm(preds).Expr(), card: selCard}
	}
	return plan
}

// varNamer invents range-variable names for the intermediate classes of a
// path (the paper uses d, e, ... in its examples).
type varNamer struct {
	used map[string]bool
	n    int
}

func newVarNamer(existing map[string]string) *varNamer {
	used := map[string]bool{}
	for v := range existing {
		used[v] = true
	}
	return &varNamer{used: used}
}

func (vn *varNamer) fresh(class string) string {
	base := strings.ToLower(class[:1])
	name := base
	for vn.used[name] {
		vn.n++
		name = fmt.Sprintf("%s%d", base, vn.n)
	}
	vn.used[name] = true
	return name
}

// segment is one element of Algorithm 8.2's Δ list: a plan spanning a
// contiguous run of the path's classes, addressable at both ends.
type segment struct {
	plan       Plan
	leftVar    string
	leftClass  string
	rightVar   string
	rightClass string
	card       float64
	accessed   bool // objects materialized in memory (temporary collection)
}

// pairCost computes jc (the minimum-cost join technique) and js (the
// fraction of left objects surviving) for joining adjacent segments via
// attr.
func (o *Optimizer) pairCost(left, right *segment, attr string) (method cost.JoinMethod, jc, js float64, bji string, err error) {
	in := cost.JoinInput{
		Class:     left.rightClass,
		Attribute: attr,
		Kc:        left.card,
		Kd:        right.card,
		CAccessed: left.accessed,
	}
	if e, ok := o.bjis[left.rightClass+"."+attr]; ok {
		in.BJIdx = &e.st
		bji = e.name
	}
	in.FusionOK = fusionApplicable(right.plan)
	method, jc, err = o.Stats.BestJoin(in)
	if err != nil {
		return 0, 0, 0, "", err
	}
	if f := o.ForceJoinMethod; f != nil && forceApplicable(*f, in) {
		if c, cerr := o.methodCost(in, *f); cerr == nil && !math.IsInf(c, 1) {
			method, jc = *f, c
		}
	}
	js = o.joinSelectivity(left, right, attr)
	return method, jc, js, bji, nil
}

// fusionApplicable reports whether a plan is shaped for the fusion join's
// absorbed probe side: a bare class bind, optionally under a selection. The
// fusion operator synthesizes the right rows from the fetched references,
// so anything that would contribute rows of its own disqualifies.
func fusionApplicable(p Plan) bool {
	switch n := p.(type) {
	case *BindPlan:
		return true
	case *SelectPlan:
		_, overBind := n.Input.(*BindPlan)
		return overBind
	}
	return false
}

// forceApplicable reports whether the forced strategy can run at all for
// this join input.
func forceApplicable(m cost.JoinMethod, in cost.JoinInput) bool {
	switch m {
	case cost.BinaryJoinIndex:
		return in.BJIdx != nil
	case cost.FusionJoin:
		return in.FusionOK
	}
	return true
}

// methodCost prices one specific join strategy, keeping the greedy ordering
// rank consistent when a method is forced.
func (o *Optimizer) methodCost(in cost.JoinInput, m cost.JoinMethod) (float64, error) {
	switch m {
	case cost.ForwardTraversal:
		return o.Stats.ForwardCost(in)
	case cost.BackwardTraversal:
		return o.Stats.BackwardCost(in)
	case cost.BinaryJoinIndex:
		return o.Stats.BJIJoinCost(in, math.Min(in.Kc, in.Kd))
	case cost.HashPartition:
		return o.Stats.HashPartitionCost(in)
	case cost.FusionJoin:
		return o.Stats.FusionCost(in)
	}
	return math.Inf(1), nil
}

// joinSelectivity estimates the surviving fraction of the left segment's
// objects: fan · k_d/|D|, clamped below 1 so the rank jc/(1-js) is finite.
func (o *Optimizer) joinSelectivity(left, right *segment, attr string) float64 {
	ls, err := o.Stats.Link(left.rightClass, attr)
	if err != nil {
		return 0.5
	}
	dCard := ls.TargetCard
	if dCard <= 0 {
		return 0.5
	}
	js := ls.Fan * right.card / dCard
	if js > 0.999 {
		js = 0.999
	}
	if js < 0 {
		js = 0
	}
	return js
}

// joinCard estimates the join result's cardinality.
func (o *Optimizer) joinCard(left, right *segment, attr string) float64 {
	ls, err := o.Stats.Link(left.rightClass, attr)
	if err != nil {
		return math.Min(left.card, right.card)
	}
	if ls.TargetCard <= 0 {
		return 0
	}
	rc := left.card * ls.Fan * (right.card / ls.TargetCard)
	if rc < 0 {
		rc = 0
	}
	return rc
}

// expandPath realizes one path-selection predicate p.A1...Am θ c as a tree
// of implicit joins ordered by Algorithm 8.2, starting from the range
// variable's current plan. The final segment is the atomic selection over
// the path's last class, planned by pathSelection.
func (o *Optimizer) expandPath(cls *classifier, g *group, ps PathSelInfo, vn *varNamer) (Plan, error) {
	// Build Δ: the segments of the chain C0 .. C_{m}.
	segs := []*segment{{
		plan: g.plan, leftVar: ps.RangeVar, leftClass: hopClass(ps, 0),
		rightVar: ps.RangeVar, rightClass: hopClass(ps, 0),
		card: g.plan.Card(), accessed: isAccessed(g.plan),
	}}
	attrs := make([]string, 0, len(ps.Path.Hops))
	for i, hop := range ps.Path.Hops {
		attrs = append(attrs, hop.Attribute)
		targetClass := hopTarget(ps, i)
		v := vn.fresh(hop.Attribute)
		var plan Plan = &BindPlan{Class: targetClass, Var: v, card: classCard(o.Stats, targetClass)}
		if i == len(ps.Path.Hops)-1 && ps.Path.FinalAttr != "" {
			plan, _ = o.pathSelection(cls, v, ps)
		}
		segs = append(segs, &segment{
			plan:    plan,
			leftVar: v, leftClass: targetClass,
			rightVar: v, rightClass: targetClass,
			card: plan.Card(),
		})
	}
	merged, err := o.greedyJoin(segs, attrs)
	if err != nil {
		return nil, err
	}
	// Every intermediate variable now belongs to the group.
	collectVars(merged.plan, g.vars)
	return merged.plan, nil
}

// pathSelection plans a path predicate's atomic selection over the path's
// final class as basePlan plans a FROM variable's: §8.1's rule makes it an
// INDSEL when the index pays, SELECT(BIND) otherwise. The plan-cache
// parameter indices travel with the constants, so a cached plan rebinds
// them. An index serves only when it holds exactly the objects the bind
// would yield — the index covers its class's IS-A closure, the bind the
// class's direct extent — so the rows never depend on the choice. The
// returned ImmSelInfo carries §8.1's cost_i.
func (o *Optimizer) pathSelection(cls *classifier, v string, ps PathSelInfo) (Plan, ImmSelInfo) {
	class := ps.Path.FinalClass
	im := ImmSelInfo{
		RangeVar: v, Predicate: atomicPredExpr(v, ps),
		Simple: sql.PathRef{Var: v, Path: []string{ps.Path.FinalAttr}},
		Op:     ps.Op, Constant: ps.Constant, Constant2: ps.Constant2,
		ConstParam: ps.ConstParam, Const2Param: ps.Const2Param, Between: ps.Between,
	}
	cls.fillImmCosts(cls.declaringClass(class, ps.Path.FinalAttr), &im)
	if im.Index != nil && !o.indexIsExtent(im.Index, class) {
		im.Index, im.IndexedCost, im.AccessType = nil, inf(), "sequential"
	}
	return o.basePlan(sql.FromItem{Class: class, Var: v}, []ImmSelInfo{im}, nil), im
}

// indexIsExtent reports whether an index on ix.Class holds exactly class's
// direct extent: the index's class is class itself and has no subclasses.
func (o *Optimizer) indexIsExtent(ix *catalog.Index, class string) bool {
	if ix.Class != class {
		return false
	}
	closure, err := o.Cat.Closure(class)
	return err == nil && len(closure) == 1
}

// orderKey is Algorithm 8.1's sort key of a path selection: F/(1-s), the
// Rank of Table 12, except in the backward regime. A one-hop path whose hop
// has a registered join index and whose final selection §8.1 serves by
// index can instead start from the target: the index selection (cost_i),
// the join-index probes from its k_d objects (BJICost) and the fetch of
// their sources (BJISourceCost). The key then uses min(F, F_backward).
func (o *Optimizer) orderKey(cls *classifier, ps PathSelInfo) float64 {
	key := ps.Rank
	if len(ps.Path.Hops) != 1 || ps.Path.FinalAttr == "" {
		return key
	}
	hop := ps.Path.Hops[0]
	e, ok := o.bjis[hop.Class+"."+hop.Attribute]
	if !ok {
		return key
	}
	target, im := o.pathSelection(cls, ps.RangeVar, ps)
	if _, indexed := target.(*IndSelPlan); !indexed {
		return key
	}
	in := cost.JoinInput{
		Class: hop.Class, Attribute: hop.Attribute,
		Kc: classCard(o.Stats, hop.Class), Kd: target.Card(), BJIdx: &e.st,
	}
	bjc, err := o.Stats.BJIJoinCost(in, in.Kd)
	if err != nil {
		return key
	}
	denom := 1 - ps.Selectivity
	if denom <= 0 {
		denom = 1e-12
	}
	return math.Min(key, (im.IndexedCost+bjc)/denom)
}

// applyJoinPred realizes an explicit join predicate (path = var): the path
// is expanded hop by hop from the left variable's group, with the final hop
// joining into the right variable's group. If both variables are already in
// the same group the predicate degenerates to a residual selection.
func (o *Optimizer) applyJoinPred(cls *classifier, jp JoinPredInfo, groups map[string]*group, vn *varNamer) error {
	lg := groups[jp.LeftVar]
	rg := groups[jp.RightVar]
	if lg == nil || rg == nil {
		return fmt.Errorf("optimizer: join predicate references unknown variable: %s", jp.Pred)
	}
	if lg == rg {
		lg.plan = &SelectPlan{Input: lg.plan, Pred: jp.Pred, card: lg.plan.Card() / 2}
		return nil
	}
	path, err := cls.typedPath(cls.varClass[jp.LeftVar], jp.Path)
	if err != nil {
		return err
	}
	// Segments: left group, intermediates, right group.
	segs := []*segment{{
		plan: lg.plan, leftVar: jp.LeftVar, leftClass: path.Hops[0].Class,
		rightVar: jp.LeftVar, rightClass: path.Hops[0].Class,
		card: lg.plan.Card(), accessed: isAccessed(lg.plan),
	}}
	attrs := make([]string, 0, len(path.Hops))
	for i, hop := range path.Hops {
		attrs = append(attrs, hop.Attribute)
		if i == len(path.Hops)-1 {
			// Final hop lands on the right variable's group.
			segs = append(segs, &segment{
				plan: rg.plan, leftVar: jp.RightVar, leftClass: path.FinalClass,
				rightVar: jp.RightVar, rightClass: path.FinalClass,
				card: rg.plan.Card(), accessed: isAccessed(rg.plan),
			})
		} else {
			target := path.Hops[i+1].Class
			v := vn.fresh(path.Hops[i+1].Attribute)
			base := &BindPlan{Class: target, Var: v, card: classCard(o.Stats, target)}
			segs = append(segs, &segment{
				plan: base, leftVar: v, leftClass: target,
				rightVar: v, rightClass: target, card: base.card,
			})
		}
	}
	merged, err := o.greedyJoin(segs, attrs)
	if err != nil {
		return err
	}
	// Unify the two groups.
	for v := range rg.vars {
		lg.vars[v] = true
	}
	collectVars(merged.plan, lg.vars)
	lg.plan = merged.plan
	for v := range lg.vars {
		if g, ok := groups[v]; ok && (g == rg || g == lg) {
			groups[v] = lg
		}
	}
	return nil
}

// greedyJoin is Algorithm 8.2: repeatedly join the adjacent pair with the
// lowest jc/(1-js) until one segment remains.
func (o *Optimizer) greedyJoin(segs []*segment, attrs []string) (*segment, error) {
	for len(segs) > 1 {
		bestIdx := -1
		bestRank := math.Inf(1)
		var bestMethod cost.JoinMethod
		var bestBJI string
		for i := 0; i+1 < len(segs); i++ {
			method, jc, js, bji, err := o.pairCost(segs[i], segs[i+1], attrs[i])
			if err != nil {
				return nil, err
			}
			rank := jc / (1 - js)
			if rank < bestRank {
				bestRank, bestIdx, bestMethod, bestBJI = rank, i, method, bji
			}
		}
		l, r := segs[bestIdx], segs[bestIdx+1]
		card := o.joinCard(l, r, attrs[bestIdx])
		join := &JoinPlan{
			Left: l.plan, Right: r.plan, Method: bestMethod,
			LeftVar: l.rightVar, Attribute: attrs[bestIdx], RightVar: r.leftVar,
			Index: bestBJI, card: card,
		}
		merged := &segment{
			plan:    join,
			leftVar: l.leftVar, leftClass: l.leftClass,
			rightVar: r.rightVar, rightClass: r.rightClass,
			card: card, accessed: true,
		}
		segs[bestIdx] = merged
		segs = append(segs[:bestIdx+1], segs[bestIdx+2:]...)
		attrs = append(attrs[:bestIdx], attrs[bestIdx+1:]...)
	}
	return segs[0], nil
}

// --- helpers --------------------------------------------------------------

func hopClass(ps PathSelInfo, i int) string {
	if i < len(ps.Path.Hops) {
		return ps.Path.Hops[i].Class
	}
	return ps.Path.FinalClass
}

func hopTarget(ps PathSelInfo, i int) string {
	if i+1 < len(ps.Path.Hops) {
		return ps.Path.Hops[i+1].Class
	}
	return ps.Path.FinalClass
}

func classCard(st *cost.Stats, class string) float64 {
	if cs, err := st.Class(class); err == nil {
		return float64(cs.Card)
	}
	return 1
}

func atomicPredExpr(v string, ps PathSelInfo) expr.Expr {
	attr := expr.Path(v, ps.Path.FinalAttr)
	if ps.Between {
		return &expr.Between{E: attr,
			Lo: &expr.Const{Val: ps.Constant, Param: ps.ConstParam},
			Hi: &expr.Const{Val: ps.Constant2, Param: ps.Const2Param}}
	}
	return &expr.Cmp{Op: ps.Op, L: attr, R: &expr.Const{Val: ps.Constant, Param: ps.ConstParam}}
}

// isAccessed reports whether the plan materializes its objects in memory
// (anything but a bare extent scan).
func isAccessed(p Plan) bool {
	_, bare := p.(*BindPlan)
	return !bare
}

// collectVars gathers every range variable a plan binds.
func collectVars(p Plan, into map[string]bool) {
	walkVars(p, func(v string) { into[v] = true })
}

// walkVars calls fn with every range variable a plan binds, in plan order
// (left before right, inputs in order); a variable bound by several
// subplans, as a union's terms bind the FROM variables, comes once per
// binding.
func walkVars(p Plan, fn func(string)) {
	switch n := p.(type) {
	case *BindPlan:
		fn(n.Var)
	case *IndSelPlan:
		fn(n.Var)
	case *SelectPlan:
		walkVars(n.Input, fn)
	case *IntersectPlan:
		for _, in := range n.Inputs {
			walkVars(in, fn)
		}
	case *JoinPlan:
		walkVars(n.Left, fn)
		walkVars(n.Right, fn)
	case *CrossPlan:
		walkVars(n.Left, fn)
		walkVars(n.Right, fn)
	case *ProjectPlan:
		walkVars(n.Input, fn)
	case *GroupPlan:
		walkVars(n.Input, fn)
	case *SortPlan:
		walkVars(n.Input, fn)
	case *UnionPlan:
		for _, in := range n.Inputs {
			walkVars(in, fn)
		}
	case *DupElimPlan:
		walkVars(n.Input, fn)
	case *ExchangePlan:
		walkVars(n.Input, fn)
	}
}

// Layout is a plan's row layout: every range variable the plan binds gets
// one slot of the executor's row vectors, fixed when the plan is compiled,
// so operators and compiled expressions address a binding by index rather
// than by name. Slots follow plan order.
type Layout struct {
	Names []string       // slot → variable
	slots map[string]int // variable → slot
}

// NewLayout lays out the variables p binds, then extra (names the executor
// binds beyond the plan's range variables, such as its projection result).
func NewLayout(p Plan, extra ...string) *Layout {
	l := &Layout{slots: map[string]int{}}
	add := func(v string) {
		if _, ok := l.slots[v]; !ok {
			l.slots[v] = len(l.Names)
			l.Names = append(l.Names, v)
		}
	}
	walkVars(p, add)
	for _, v := range extra {
		add(v)
	}
	return l
}

// Width is the number of slots in a row.
func (l *Layout) Width() int { return len(l.Names) }

// Slot returns the slot of a variable.
func (l *Layout) Slot(v string) (int, bool) {
	s, ok := l.slots[v]
	return s, ok
}
