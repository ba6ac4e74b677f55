package exec

import (
	"errors"
	"fmt"
	"sort"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/funcmgr"
	"mood/internal/joinindex"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/sql"
	"mood/internal/storage"
)

// This file is the streaming (pull-based, Volcano-style) execution path.
// Compile lowers each Plan node into an Operator; rows flow upward a batch
// at a time through NextBatch, so non-blocking operators never copy or
// buffer intermediate collections and a consumer that stops early stops the
// leaves from reading further pages. Blocking operators — sort, group,
// dup-elim, and the build sides of the join strategies — drain their inputs
// inside Open and are the pipeline breakers documented in DESIGN.md.
//
// The streaming path produces exactly the rows (values and order) of
// ExecuteMaterialized; the differential tests in stream_test.go and the
// kernel golden suite hold the two paths equal.

// Execute runs a plan through the streaming pipeline and materializes the
// result, preserving the seed executor's *algebra.Collection API.
func (e *Executor) Execute(p optimizer.Plan) (*algebra.Collection, error) {
	root, err := e.compileNode(p, nil)
	if err != nil {
		return nil, err
	}
	return root.drain()
}

// Compile lowers a plan into a physical-operator pipeline without running
// it, behind the root row cursor. The caller owns the lifecycle: Open, Next
// until exhausted, Close.
func (e *Executor) Compile(p optimizer.Plan) (*Cursor, error) {
	root, err := e.compileNode(p, nil)
	if err != nil {
		return nil, err
	}
	return &Cursor{root: root.op, hdr: root.hdr}, nil
}

// drain materializes a compiled operator's stream under its compile-time
// header, a full batch at a time.
func (c *compiled) drain() (*algebra.Collection, error) {
	out := &algebra.Collection{Kind: c.hdr.Kind, Name: c.hdr.Name, Class: c.hdr.Class}
	if err := c.op.Open(); err != nil {
		c.op.Close()
		return nil, err
	}
	b := newRowBatch(BatchCapacity)
	for {
		n, err := c.op.NextBatch(b)
		if err != nil {
			c.op.Close()
			return nil, err
		}
		if n == 0 {
			break
		}
		out.Rows = append(out.Rows, b.Rows[:n]...)
	}
	if err := c.op.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// compiled pairs a plan node with its operator, compile-time header, and
// compiled children (the analysis tree EXPLAIN ANALYZE walks). op is the
// operator to drive (possibly a stats wrapper); raw is always the bare
// operator underneath.
type compiled struct {
	plan  optimizer.Plan
	op    Operator
	raw   Operator
	hdr   optimizer.Header
	stats *opStats // non-nil when compiled for EXPLAIN ANALYZE
	kids  []*compiled
}

// compileNode lowers one plan node. When an is non-nil every operator is
// wrapped with per-operator instrumentation.
func (e *Executor) compileNode(p optimizer.Plan, an *analyzeCtx) (*compiled, error) {
	c := &compiled{plan: p}
	child := func(in optimizer.Plan) (*compiled, error) {
		k, err := e.compileNode(in, an)
		if err != nil {
			return nil, err
		}
		c.kids = append(c.kids, k)
		return k, nil
	}

	switch n := p.(type) {
	case *optimizer.BindPlan:
		c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: n.Var, Class: n.Class}
		c.op = e.scanOp(n, nil)

	case *optimizer.IndSelPlan:
		c.hdr = optimizer.Header{Kind: algebra.SetKind, Name: n.Var, Class: n.Class}
		c.op = &indSelOp{
			alg: e.Alg, class: n.Class, varName: n.Var,
			indexKind: n.Index.Kind, pred: n.Pred, funcs: e.queryFuncs(),
		}

	case *optimizer.IntersectPlan:
		// Every input is an IndSelPlan by construction (the optimizer only
		// intersects index selections). The children stream candidate OIDs
		// without fetching objects; the intersect fetches each surviving OID
		// once and re-checks every input's predicate against it. An empty
		// intersection therefore costs only the index probes.
		kids := make([]*compiled, 0, len(n.Inputs))
		rechecks := make([]expr.Expr, 0, len(n.Inputs))
		for _, in := range n.Inputs {
			isp, ok := in.(*optimizer.IndSelPlan)
			if !ok {
				return nil, fmt.Errorf("exec: INTERSECT input is %T, want INDSEL", in)
			}
			k, err := child(in)
			if err != nil {
				return nil, err
			}
			k.raw.(withCandidatesOnly).candidatesOnly()
			kids = append(kids, k)
			rechecks = append(rechecks, e.Alg.RecheckExpr(isp.Var, isp.Pred))
		}
		first := n.Inputs[0].(*optimizer.IndSelPlan)
		c.hdr = optimizer.Header{Kind: algebra.SetKind, Name: first.Var, Class: first.Class}
		c.op = &intersectOp{alg: e.Alg, kids: kids, varName: first.Var, rechecks: rechecks}

	case *optimizer.SelectPlan:
		if bp, ok := n.Input.(*optimizer.BindPlan); ok {
			// Fused scan-selection: the BIND child disappears from the
			// operator tree; EXPLAIN ANALYZE annotates the fused node.
			c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: bp.Var, Class: bp.Class}
			c.op = e.scanOp(bp, n.Pred)
			break
		}
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr = in.hdr
		sel := &selectOp{in: in.op, re: e.Alg.NewRowEvaluator()}
		sel.fn, sel.full = e.queryFuncs().BoolFn(n.Pred)
		c.op = sel

	case *optimizer.JoinPlan:
		if lb, ok := n.Left.(*optimizer.BindPlan); ok && n.Method == cost.BinaryJoinIndex {
			// The join-index join absorbs a bare-bind left side, the mirror
			// of fusion's right: it fetches only the backward sources of
			// the right rows, and the left extent is never scanned.
			right, err := child(n.Right)
			if err != nil {
				return nil, err
			}
			c.hdr = optimizer.Header{
				Kind:  algebra.JoinKind(algebra.ExtentKind, right.hdr.Kind),
				Name:  n.RightVar,
				Class: right.hdr.Class,
			}
			c.op = &bjiJoinOp{
				joinBase: joinBase{
					alg: e.Alg, right: right,
					leftVar: n.LeftVar, attr: n.Attribute, rightVar: n.RightVar,
				},
				index: e.BJIs[n.Index], leftBind: lb,
			}
			break
		}
		left, err := child(n.Left)
		if err != nil {
			return nil, err
		}
		if n.Method == cost.FusionJoin {
			// Fusion absorbs its bind-shaped right side into the operator
			// (the same disappearance as the fused scan-selection): the
			// bind's class membership and predicate run against the
			// batch-fetched referents, and the right extent is never
			// scanned. The optimizer only picks fusion for these shapes.
			bp, pred, ok := fusionRight(n.Right)
			if !ok {
				return nil, fmt.Errorf("exec: fusion join needs a bind-shaped right side, got %T", n.Right)
			}
			c.hdr = optimizer.Header{
				Kind:  algebra.JoinKind(left.hdr.Kind, algebra.ExtentKind),
				Name:  n.RightVar,
				Class: bp.Class,
			}
			op := &fusionJoinOp{
				joinBase: joinBase{
					alg: e.Alg, left: left,
					leftVar: n.LeftVar, attr: n.Attribute, rightVar: n.RightVar,
				},
				bind: bp,
				pred: pred,
				re:   e.Alg.NewRowEvaluator(),
			}
			if pred != nil {
				op.predFn, _ = e.queryFuncs().Predicate(bp.Var, pred)
			}
			c.op = op
			break
		}
		right, err := child(n.Right)
		if err != nil {
			return nil, err
		}
		c.hdr = optimizer.Header{
			Kind:  algebra.JoinKind(left.hdr.Kind, right.hdr.Kind),
			Name:  n.RightVar,
			Class: right.hdr.Class,
		}
		var bji *joinindex.BinaryJoinIndex
		if n.Index != "" {
			bji = e.BJIs[n.Index]
		}
		j := joinBase{
			alg: e.Alg, left: left, right: right,
			leftVar: n.LeftVar, attr: n.Attribute, rightVar: n.RightVar,
		}
		switch n.Method {
		case cost.ForwardTraversal:
			c.op = &forwardJoinOp{joinBase: j}
		case cost.BackwardTraversal:
			c.op = &backwardJoinOp{joinBase: j}
		case cost.BinaryJoinIndex:
			c.op = &bjiJoinOp{joinBase: j, index: bji}
		case cost.HashPartition:
			c.op = &hashJoinOp{joinBase: j}
		default:
			return nil, fmt.Errorf("algebra: unknown join method %v", n.Method)
		}

	case *optimizer.CrossPlan:
		left, err := child(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := child(n.Right)
		if err != nil {
			return nil, err
		}
		c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: right.hdr.Name, Class: right.hdr.Class}
		c.op = &crossOp{left: left, right: right}

	case *optimizer.UnionPlan:
		kids := make([]*compiled, 0, len(n.Inputs))
		for _, in := range n.Inputs {
			k, err := child(in)
			if err != nil {
				return nil, err
			}
			kids = append(kids, k)
		}
		if len(kids) == 0 {
			return nil, fmt.Errorf("exec: UNION with no inputs")
		}
		c.hdr = kids[0].hdr
		c.op = &unionOp{kids: kids, vars: n.Vars}

	case *optimizer.ProjectPlan:
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: in.hdr.Name, Class: in.hdr.Class}
		pop := &projectOp{
			in: in.op, items: n.Items, re: e.Alg.NewRowEvaluator(),
			fns: make([]expr.Fn, len(n.Items)), full: true,
		}
		for i, it := range n.Items {
			if it.Expr == nil { // star/aggregate items never reach the projection
				pop.full = false
				continue
			}
			var ok bool
			pop.fns[i], ok = e.queryFuncs().Fn(it.Expr)
			pop.full = pop.full && ok
		}
		c.op = pop

	case *optimizer.GroupPlan:
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: in.hdr.Name, Class: in.hdr.Class}
		c.op = &breakerOp{in: in, run: func(coll *algebra.Collection) (*algebra.Collection, error) {
			return e.group(coll, n.By, n.Having, n.Projs)
		}}

	case *optimizer.SortPlan:
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr = in.hdr
		c.op = &breakerOp{in: in, run: func(coll *algebra.Collection) (*algebra.Collection, error) {
			return e.sortRows(coll, n.Keys)
		}}

	case *optimizer.DupElimPlan:
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr = in.hdr
		c.op = &breakerOp{in: in, run: func(coll *algebra.Collection) (*algebra.Collection, error) {
			return dedupByResult(coll), nil
		}}

	case *optimizer.ExchangePlan:
		cc, err := e.compileExchange(c, n, an)
		if err != nil || cc != c {
			// A serial fallback already carries its own instrumentation.
			return cc, err
		}

	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", p)
	}

	c.raw = c.op
	if an != nil {
		c.stats = &opStats{}
		c.op = &statsOp{inner: c.op, an: an, st: c.stats}
	}
	return c, nil
}

// --- leaf operators -------------------------------------------------------

// scanOp lowers BIND(Class, var), fusing the selection P over it when pred
// is non-nil.
func (e *Executor) scanOp(bp *optimizer.BindPlan, pred expr.Expr) *scanSelectOp {
	op := &scanSelectOp{
		alg: e.Alg, class: bp.Class, varName: bp.Var,
		minus: bp.Minus, closure: bp.Every || len(bp.Minus) > 0, pred: pred,
	}
	if pred != nil {
		if op.predFn, _ = e.queryFuncs().Predicate(bp.Var, pred); op.predFn == nil {
			op.re = e.Alg.NewRowEvaluator()
		}
	}
	return op
}

// scanSelectOp streams a class extent through the catalog's page-at-a-time
// cursor — BIND(Class, var) — and fuses SELECT(BIND(...), P) into the same
// operator when it has a predicate: each object comes off the extent cursor
// and is filtered before a row is ever built, so non-matching objects cost
// neither a Vars map allocation nor an environment bind. When the predicate
// lowers to self mode (compiled through the Function Manager's query
// registry) the per-object check is a direct closure call pushed into the
// cursor; otherwise (method calls) the row is built and the predicate
// interpreted.
type scanSelectOp struct {
	alg     *algebra.Algebra
	class   string
	varName string
	minus   []string
	closure bool
	pred    expr.Expr   // nil for a bare BIND
	predFn  expr.PredFn // self-mode compiled; nil → interpret through re
	re      *algebra.RowEvaluator
	cur     *catalog.ExtentCursor
}

func (o *scanSelectOp) Open() error {
	cur, err := o.alg.Cat.OpenExtentScan(o.class, o.minus, o.closure)
	if err != nil {
		return err
	}
	o.cur = cur
	cur.SetFilter(o.filter())
	return nil
}

// filter is the compiled predicate in the form the extent readers push into
// their page-decode loops: rejected objects are filtered in place and never
// buffered, so the fused operator pays nothing per non-matching object
// beyond the predicate call itself. Page reads are unchanged. nil when
// there is no compiled predicate.
func (o *scanSelectOp) filter() func(storage.OID, *object.Value) (bool, error) {
	if o.predFn == nil {
		return nil
	}
	resolve := o.alg.Cat.Resolver()
	return func(oid storage.OID, v *object.Value) (bool, error) {
		return o.predFn(v, oid, resolve)
	}
}

// row builds the row of an object the filter passed and interprets the
// predicate the filter could not run.
func (o *scanSelectOp) row(re *algebra.RowEvaluator, oid storage.OID, v object.Value) (algebra.Row, bool, error) {
	row := algebra.Row{Vars: map[string]algebra.Bound{o.varName: {OID: oid, Val: v}}}
	if o.pred == nil || o.predFn != nil {
		return row, true, nil
	}
	keep, err := re.EvalBool(row, o.pred)
	return row, keep, err
}

// NextBatch pulls straight from the extent cursor; the cursor reads pages
// on demand, so a partially consumed batch never over-reads.
func (o *scanSelectOp) NextBatch(b *RowBatch) (int, error) {
	n := 0
	for n < len(b.Rows) {
		oid, v, ok, err := o.cur.NextRef()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		row, keep, err := o.row(o.re, oid, *v)
		if err != nil {
			return 0, err
		}
		if keep {
			b.Rows[n] = row
			n++
		}
	}
	return n, nil
}

// tasks splits the scan into page-range morsels in the cursor's visiting
// order; a worker reads a morsel through the same filter and row builder.
func (o *scanSelectOp) tasks() (taskSet, error) {
	morsels, err := o.alg.Cat.ExtentMorsels(o.class, o.minus, o.closure, exchangeMorselPages)
	if err != nil {
		return taskSet{}, err
	}
	filter := o.filter()
	return taskSet{
		n:       len(morsels),
		preload: func(t int, p *storage.Preload) error { return o.alg.Cat.PreloadMorsel(p, &morsels[t]) },
		run: func(re *algebra.RowEvaluator, t int) ([]algebra.Row, int, error) {
			objs, err := o.alg.Cat.ReadMorselFiltered(&morsels[t], filter)
			if err != nil {
				return nil, 0, err
			}
			rows := make([]algebra.Row, 0, len(objs))
			for i := range objs {
				row, keep, err := o.row(re, objs[i].OID, objs[i].Val)
				if err != nil {
					return nil, 0, err
				}
				if keep {
					rows = append(rows, row)
				}
			}
			return rows, len(morsels[t].Pages), nil
		},
	}, nil
}

func (o *scanSelectOp) Close() error {
	if o.cur != nil {
		o.cur.Close()
	}
	return nil
}

func (o *scanSelectOp) compiledPredicate() (active, full bool) {
	return o.pred != nil, o.predFn != nil
}

// withCandidatesOnly is implemented by operators that can restrict
// themselves to the index probe (no object fetches); the streaming
// intersect switches its INDSEL children into this mode.
type withCandidatesOnly interface{ candidatesOnly() }

// indSelOp is INDSEL(Class, var, index, P): the index probe happens at
// Open, object fetches and the predicate re-check stream per NextBatch. In
// candidates-only mode it emits the probed OIDs without fetching.
type indSelOp struct {
	alg       *algebra.Algebra
	class     string
	varName   string
	indexKind catalog.IndexKind
	pred      algebra.SimplePredicate
	probeOnly bool
	funcs     *funcmgr.QueryRegistry

	oids    []storage.OID
	i       int
	recheck expr.Expr
	predFn  expr.PredFn // nil → interpret the recheck through re
	resolve object.Resolver
	re      *algebra.RowEvaluator
}

func (o *indSelOp) candidatesOnly() { o.probeOnly = true }

func (o *indSelOp) Open() error {
	oids, err := o.alg.IndSelCandidates(o.class, o.indexKind, o.pred)
	if err != nil {
		return err
	}
	o.oids = oids
	if !o.probeOnly {
		o.recheck = o.alg.RecheckExpr(o.varName, o.pred)
		o.re = o.alg.NewRowEvaluator()
		o.predFn, _ = o.funcs.Predicate(o.varName, o.recheck)
		o.resolve = o.alg.Cat.Resolver()
	}
	return nil
}

// NextBatch fetches one candidate per GetObject, so the index path's page
// access pattern (and the DiskSim counts tests pin) does not depend on the
// batch size.
func (o *indSelOp) NextBatch(b *RowBatch) (int, error) {
	n := 0
	for n < len(b.Rows) && o.i < len(o.oids) {
		oid := o.oids[o.i]
		o.i++
		if !o.probeOnly {
			v, _, err := o.alg.Cat.GetObject(oid)
			if err != nil {
				return 0, err
			}
			ok, err := o.recheckOne(o.re, oid, &v)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
		}
		b.Rows[n] = o.idRow(oid)
		n++
	}
	return n, nil
}

// recheckOne re-checks one fetched candidate against the predicate, through
// the compiled form when it lowers.
func (o *indSelOp) recheckOne(re *algebra.RowEvaluator, oid storage.OID, v *object.Value) (bool, error) {
	if o.predFn != nil {
		return o.predFn(v, oid, o.resolve)
	}
	return re.EvalBool(algebra.Row{Vars: map[string]algebra.Bound{o.varName: {OID: oid, Val: *v}}}, o.recheck)
}

// idRow is an emitted row: as in IndSel, it carries the identifier only.
func (o *indSelOp) idRow(oid storage.OID) algebra.Row {
	return algebra.Row{Vars: map[string]algebra.Bound{o.varName: {OID: oid}}}
}

// tasks probes the index (Open) and splits the candidates into page-aligned
// chunks; a worker fetches a chunk in one page-ordered batch — one pin per
// page instead of one random Get per OID — and rechecks it as NextBatch
// does.
func (o *indSelOp) tasks() (taskSet, error) {
	if err := o.Open(); err != nil {
		return taskSet{}, err
	}
	chunks := chunkOIDs(o.oids, exchangeOIDChunk)
	return taskSet{
		n:       len(chunks),
		preload: func(t int, p *storage.Preload) error { return o.alg.Cat.PreloadObjects(p, chunks[t]) },
		run: func(re *algebra.RowEvaluator, t int) ([]algebra.Row, int, error) {
			vals, _, err := o.alg.Cat.GetObjects(chunks[t])
			if err != nil {
				return nil, 0, err
			}
			var rows []algebra.Row
			for i, oid := range chunks[t] {
				ok, err := o.recheckOne(re, oid, &vals[i])
				if err != nil {
					return nil, 0, err
				}
				if ok {
					rows = append(rows, o.idRow(oid))
				}
			}
			return rows, len(chunks[t]), nil
		},
	}, nil
}

func (o *indSelOp) Close() error { return nil }

func (o *indSelOp) compiledPredicate() (active, full bool) {
	return !o.probeOnly, o.predFn != nil
}

// intersectOp intersects its children's candidate OID streams at Open (index
// probes only), then fetches each surviving object once and re-checks every
// input's predicate. The materializing path fetches every candidate of every
// input; here an OID eliminated by the intersection is never fetched, and an
// empty intersection short-circuits to zero fetches.
type intersectOp struct {
	alg      *algebra.Algebra
	kids     []*compiled
	varName  string
	rechecks []expr.Expr

	oids []storage.OID
	i    int
	re   *algebra.RowEvaluator
}

func (o *intersectOp) Open() error {
	var first []storage.OID
	var rest []map[storage.OID]bool
	for ki, kid := range o.kids {
		cands, err := kid.drain()
		if err != nil {
			return err
		}
		if ki == 0 {
			for _, row := range cands.Rows {
				first = append(first, row.Vars[o.varName].OID)
			}
			continue
		}
		set := make(map[storage.OID]bool, len(cands.Rows))
		for _, row := range cands.Rows {
			set[row.Vars[o.varName].OID] = true
		}
		rest = append(rest, set)
	}
	// Surviving candidates keep the first input's probe order, matching the
	// materializing Intersection (which preserves its x argument's order).
	for _, oid := range first {
		inAll := true
		for _, set := range rest {
			if !set[oid] {
				inAll = false
				break
			}
		}
		if inAll {
			o.oids = append(o.oids, oid)
		}
	}
	o.re = o.alg.NewRowEvaluator()
	return nil
}

func (o *intersectOp) NextBatch(b *RowBatch) (int, error) {
	n := 0
next:
	for n < len(b.Rows) && o.i < len(o.oids) {
		oid := o.oids[o.i]
		o.i++
		v, _, err := o.alg.Cat.GetObject(oid)
		if err != nil {
			return 0, err
		}
		env, err := o.re.Env(algebra.Row{Vars: map[string]algebra.Bound{o.varName: {OID: oid, Val: v}}})
		if err != nil {
			return 0, err
		}
		for _, p := range o.rechecks {
			ok, err := expr.EvalBool(p, env)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue next
			}
		}
		b.Rows[n] = algebra.Row{Vars: map[string]algebra.Bound{o.varName: {OID: oid}}}
		n++
	}
	return n, nil
}

func (o *intersectOp) Close() error {
	for _, kid := range o.kids {
		kid.op.Close()
	}
	return nil
}

// --- streaming filters ----------------------------------------------------

// selectOp is SELECT(input, P): a pure streaming filter. The predicate runs
// as a compiled closure against the evaluator's bound environment; subtrees
// that do not lower (method calls) interpret inside it.
type selectOp struct {
	in   Operator
	re   *algebra.RowEvaluator
	fn   expr.BoolFn
	full bool
}

func (o *selectOp) Open() error { return o.in.Open() }

// NextBatch filters the child's batch in place, pulling more input until at
// least one row survives or the input ends (a 0 return means exhaustion).
// Asking the child for len(b.Rows) rows never consumes input past the last
// row a full b needs.
func (o *selectOp) NextBatch(b *RowBatch) (int, error) {
	for {
		n, err := o.in.NextBatch(b)
		if err != nil || n == 0 {
			return 0, err
		}
		w := 0
		for _, row := range b.Rows[:n] {
			keep, err := o.re.EvalPred(row, o.fn)
			if err != nil {
				return 0, err
			}
			if keep {
				b.Rows[w] = row
				w++
			}
		}
		if w > 0 {
			return w, nil
		}
	}
}

func (o *selectOp) Close() error { return o.in.Close() }

func (o *selectOp) compiledPredicate() (active, full bool) { return true, o.full }

// projectOp evaluates the projection list per row, attaching the tuple
// under ResultVar. The item expressions run as compiled closures.
type projectOp struct {
	in    Operator
	items []sql.ProjItem
	re    *algebra.RowEvaluator
	names []string
	fns   []expr.Fn // per-item compiled forms; nil for star/aggregate items
	full  bool
}

func (o *projectOp) Open() error {
	o.names = make([]string, len(o.items))
	for i, it := range o.items {
		o.names[i] = outName(it, i)
	}
	return o.in.Open()
}

// NextBatch transforms the child's batch in place — projection is 1:1, so
// the child's count is the output count.
func (o *projectOp) NextBatch(b *RowBatch) (int, error) {
	n, err := o.in.NextBatch(b)
	if err != nil || n == 0 {
		return 0, err
	}
	for i, row := range b.Rows[:n] {
		env, err := o.re.Env(row)
		if err != nil {
			return 0, err
		}
		fields := make([]object.Value, len(o.items))
		for j, it := range o.items {
			var v object.Value
			if o.fns[j] != nil {
				v, err = o.fns[j](env)
			} else {
				v, err = it.Expr.Eval(env)
			}
			if err != nil {
				return 0, err
			}
			fields[j] = v
		}
		nr := algebra.Row{Vars: make(map[string]algebra.Bound, len(row.Vars)+1)}
		for k, v := range row.Vars {
			nr.Vars[k] = v
		}
		nr.Vars[ResultVar] = algebra.Bound{Val: object.NewTuple(o.names, fields)}
		b.Rows[i] = nr
	}
	return n, nil
}

func (o *projectOp) Close() error { return o.in.Close() }

func (o *projectOp) compiledPredicate() (active, full bool) { return true, o.full }

// --- pipeline breakers ----------------------------------------------------

// breakerOp drains its input at Open and applies a whole-collection
// transform (sort, group, dup-elim) — the explicit pipeline breakers.
type breakerOp struct {
	in  *compiled
	run func(*algebra.Collection) (*algebra.Collection, error)
	out []algebra.Row
	i   int
}

func (o *breakerOp) Open() error {
	coll, err := o.in.drain()
	if err != nil {
		return err
	}
	res, err := o.run(coll)
	if err != nil {
		return err
	}
	o.out = res.Rows
	return nil
}

// NextBatch copies a run of the materialized result.
func (o *breakerOp) NextBatch(b *RowBatch) (int, error) {
	n := copy(b.Rows, o.out[o.i:])
	o.i += n
	return n, nil
}

func (o *breakerOp) Close() error { return o.in.op.Close() }

// --- joins ----------------------------------------------------------------

// joinBase carries the fields shared by the join strategies. pending
// buffers the merged rows one production step made (a single driving row
// can match several rows on the other side).
type joinBase struct {
	alg         *algebra.Algebra
	left, right *compiled
	leftVar     string
	attr        string
	rightVar    string

	pending []algebra.Row
	pi      int
	sub     RowBatch // the sub-batch a strategy pulls its streaming input into
	eof     bool     // the input pull reads is exhausted
}

// fill is every join's NextBatch: it moves pending rows into b and calls
// produce for the next step only while b has room, so a join does no more
// reading than the batch it was handed needs. produce appends to pending
// and reports false once the join is exhausted.
func (j *joinBase) fill(b *RowBatch, produce func() (bool, error)) (int, error) {
	n := 0
	for {
		k := copy(b.Rows[n:], j.pending[j.pi:])
		j.pi += k
		n += k
		if n == len(b.Rows) {
			return n, nil
		}
		j.pending, j.pi = j.pending[:0], 0
		more, err := produce()
		if err != nil {
			return 0, err
		}
		if !more {
			return n, nil
		}
	}
}

// Close closes the compiled children; an absorbed side (fusion's right,
// the join index's left) is nil.
func (j *joinBase) Close() error {
	var err error
	for _, k := range []*compiled{j.left, j.right} {
		if k == nil {
			continue
		}
		if err2 := k.op.Close(); err == nil {
			err = err2
		}
	}
	return err
}

// pull takes the next joinBatchRows rows off in, asking for exactly the
// rows still missing so it never reads past the step, and sets eof once in
// is exhausted.
func (j *joinBase) pull(in *compiled) ([]algebra.Row, error) {
	batch := make([]algebra.Row, joinBatchRows)
	n := 0
	for n < joinBatchRows {
		j.sub.Rows = batch[n:]
		k, err := in.op.NextBatch(&j.sub)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			j.eof = true
			break
		}
		n += k
	}
	return batch[:n], nil
}

// distinctRefs lists the distinct OIDs of lists in first-seen order, with
// each OID's position in that list.
func distinctRefs(lists [][]storage.OID) ([]storage.OID, map[storage.OID]int) {
	var refs []storage.OID
	at := map[storage.OID]int{}
	for _, rs := range lists {
		for _, ref := range rs {
			if _, ok := at[ref]; !ok {
				at[ref] = len(refs)
				refs = append(refs, ref)
			}
		}
	}
	return refs, at
}

// joinBatchRows is how many driving-side rows (or probe OIDs) the batched
// join strategies gather before resolving references through the catalog's
// GetObjects: large enough that the page-ordered batch fetch amortizes page
// pins and overlaps readahead, small enough that an early-closing consumer
// still stops the driving side promptly.
const joinBatchRows = 64

// forwardJoinOp streams the left side and chases each reference (the
// paper's forward traversal); the right side is the build side, drained at
// Open into an OID-keyed hash. The left side is consumed joinBatchRows rows
// per step: each step's distinct references resolve through one
// page-ordered GetObjects call instead of a random dereference per
// occurrence.
type forwardJoinOp struct {
	joinBase
	rightBy map[storage.OID][]algebra.Row
}

func (o *forwardJoinOp) Open() error {
	rc, err := o.right.drain()
	if err != nil {
		return err
	}
	o.rightBy = algebra.RowsByOID(rc, o.rightVar)
	return o.left.op.Open()
}

func (o *forwardJoinOp) NextBatch(b *RowBatch) (int, error) { return o.fill(b, o.produce) }

// produce pulls the next joinBatchRows driving rows — asking the left side
// for exactly the rows still missing, so it never reads past the step —
// and resolves their references into pending.
func (o *forwardJoinOp) produce() (bool, error) {
	if o.eof {
		return false, nil
	}
	batch, err := o.pull(o.left)
	if err != nil {
		return false, err
	}
	batchRefs := make([][]storage.OID, len(batch))
	for i := range batch {
		lb := batch[i].Vars[o.leftVar]
		if err := o.alg.MaterializeBound(&lb); err != nil {
			return false, err
		}
		batch[i].Vars[o.leftVar] = lb
		batchRefs[i] = algebra.RefsOf(lb.Val, o.attr)
	}
	// Chase the pointers: every distinct reference of the step is
	// dereferenced even if the right side later rejects the object, as in
	// real forward traversal — but each only once per step.
	refs, at := distinctRefs(batchRefs)
	if len(refs) == 0 {
		return true, nil
	}
	vals, _, err := o.alg.Cat.GetObjects(refs)
	if err != nil {
		return false, err
	}
	for i, lrow := range batch {
		for _, ref := range batchRefs[i] {
			val := vals[at[ref]]
			for _, rrow := range o.rightBy[ref] {
				merged := lrow.Merged(rrow)
				rb := merged.Vars[o.rightVar]
				rb.Val = val
				merged.Vars[o.rightVar] = rb
				o.pending = append(o.pending, merged)
			}
		}
	}
	return true, nil
}

// backwardJoinOp scans the left class's extent closure sequentially,
// restricting to the left collection and matching references against the
// right collection. Both inputs are build sides; the extent scan is the
// streaming side, so an early-closing consumer stops the scan mid-extent.
type backwardJoinOp struct {
	joinBase
	leftBy  map[storage.OID][]algebra.Row
	rightBy map[storage.OID][]algebra.Row
	cur     *catalog.ExtentCursor
}

func (o *backwardJoinOp) Open() error {
	if o.left.hdr.Class == "" {
		return fmt.Errorf("algebra: backward traversal needs the left class")
	}
	lc, err := o.left.drain()
	if err != nil {
		return err
	}
	rc, err := o.right.drain()
	if err != nil {
		return err
	}
	o.leftBy = algebra.RowsByOID(lc, o.leftVar)
	o.rightBy = algebra.RowsByOID(rc, o.rightVar)
	o.cur, err = o.alg.Cat.OpenExtentScan(o.left.hdr.Class, nil, true)
	return err
}

func (o *backwardJoinOp) NextBatch(b *RowBatch) (int, error) { return o.fill(b, o.produce) }

// produce matches the next scanned object of the left extent.
func (o *backwardJoinOp) produce() (bool, error) {
	oid, v, ok, err := o.cur.Next()
	if err != nil || !ok {
		return false, err
	}
	lrows, inLeft := o.leftBy[oid]
	if !inLeft {
		return true, nil
	}
	for _, ref := range algebra.RefsOf(v, o.attr) {
		rrows, hit := o.rightBy[ref]
		if !hit {
			continue
		}
		for _, lrow := range lrows {
			lb := lrow.Vars[o.leftVar]
			lb.Val = v
			lrow.Vars[o.leftVar] = lb
			for _, rrow := range rrows {
				o.pending = append(o.pending, lrow.Merged(rrow))
			}
		}
	}
	return true, nil
}

func (o *backwardJoinOp) Close() error {
	if o.cur != nil {
		o.cur.Close()
	}
	return o.joinBase.Close()
}

// bjiJoinOp streams the right side, probing the binary join index backward
// from each right object; the left side is the build side. The right side
// is pulled one row per probe, so its extent reads interleave with the
// index reads exactly as the per-object probe of the paper's join-index
// access does.
//
// When the left side is a bare class bind the operator absorbs it: the
// left extent is never scanned. Each step probes joinBatchRows right rows
// and fetches their distinct sources in one page-ordered GetObjects call,
// keeping the sources the bind would yield (the index covers the indexed
// class's IS-A closure, a bare bind only its direct extent). Rows and their
// order are those of the draining form: right order, then index order.
type bjiJoinOp struct {
	joinBase
	index  *joinindex.BinaryJoinIndex
	leftBy map[storage.OID][]algebra.Row

	leftBind *optimizer.BindPlan // the absorbed left side, or nil
	allowed  map[string]bool     // class names leftBind yields
}

func (o *bjiJoinOp) Open() error {
	if o.index == nil {
		return fmt.Errorf("%w: binary join index for %s.%s",
			algebra.ErrNoIndex, o.leftClass(), o.attr)
	}
	if o.leftBind != nil {
		var err error
		if o.allowed, err = bindClasses(o.alg.Cat, o.leftBind); err != nil {
			return err
		}
		return o.right.op.Open()
	}
	lc, err := o.left.drain()
	if err != nil {
		return err
	}
	o.leftBy = algebra.RowsByOID(lc, o.leftVar)
	return o.right.op.Open()
}

func (o *bjiJoinOp) leftClass() string {
	if o.leftBind != nil {
		return o.leftBind.Class
	}
	return o.left.hdr.Class
}

func (o *bjiJoinOp) NextBatch(b *RowBatch) (int, error) {
	if o.leftBind != nil {
		return o.fill(b, o.produceAbsorbed)
	}
	return o.fill(b, o.produce)
}

// produce resolves the next right row against the index into pending.
func (o *bjiJoinOp) produce() (bool, error) {
	k, err := o.right.op.NextBatch(o.sub.sized(1))
	if err != nil || k == 0 {
		return false, err
	}
	rrow := o.sub.Rows[0]
	sources, err := o.index.Backward(rrow.Vars[o.rightVar].OID)
	if err != nil {
		return false, err
	}
	for _, src := range sources {
		for _, lrow := range o.leftBy[src] {
			o.pending = append(o.pending, lrow.Merged(rrow))
		}
	}
	return true, nil
}

// produceAbsorbed resolves the next joinBatchRows right rows into pending,
// fetching their sources instead of reading the left extent.
func (o *bjiJoinOp) produceAbsorbed() (bool, error) {
	if o.eof {
		return false, nil
	}
	batch, err := o.pull(o.right)
	if err != nil || len(batch) == 0 {
		return false, err
	}
	sources := make([][]storage.OID, len(batch))
	for i := range batch {
		if sources[i], err = o.index.Backward(batch[i].Vars[o.rightVar].OID); err != nil {
			return false, err
		}
	}
	refs, at := distinctRefs(sources)
	if len(refs) == 0 {
		return true, nil
	}
	vals, names, err := o.fetchSources(refs)
	if err != nil {
		return false, err
	}
	for i, rrow := range batch {
		for _, src := range sources[i] {
			j := at[src]
			if !o.allowed[names[j]] {
				continue
			}
			lrow := algebra.Row{Vars: map[string]algebra.Bound{o.leftVar: {OID: src, Val: vals[j]}}}
			o.pending = append(o.pending, lrow.Merged(rrow))
		}
	}
	return true, nil
}

// fetchSources dereferences probed sources in one page-ordered batch. A
// source deleted after the index was read (maintenance follows the store
// change) is dropped with an empty class name, as the extent scan it
// replaces would not have yielded it.
func (o *bjiJoinOp) fetchSources(refs []storage.OID) ([]object.Value, []string, error) {
	vals, names, err := o.alg.Cat.GetObjects(refs)
	if !errors.Is(err, storage.ErrRecordGone) {
		return vals, names, err
	}
	vals, names = make([]object.Value, len(refs)), make([]string, len(refs))
	for i, ref := range refs {
		v, name, err := o.alg.Cat.GetObject(ref)
		if errors.Is(err, storage.ErrRecordGone) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		vals[i], names[i] = v, name
	}
	return vals, names, nil
}

// bindClasses is the set of class names a bind yields objects of: the class
// alone for a bare bind (its direct extent), its IS-A closure under EVERY or
// an exclusion, less the closures of the excluded subclasses.
func bindClasses(cat *catalog.Catalog, bp *optimizer.BindPlan) (map[string]bool, error) {
	if !bp.Every && len(bp.Minus) == 0 {
		return map[string]bool{bp.Class: true}, nil
	}
	closure, err := cat.Closure(bp.Class)
	if err != nil {
		return nil, err
	}
	allowed := make(map[string]bool, len(closure))
	for _, name := range closure {
		allowed[name] = true
	}
	for _, m := range bp.Minus {
		sub, err := cat.Closure(m)
		if err != nil {
			return nil, err
		}
		for _, s := range sub {
			delete(allowed, s)
		}
	}
	return allowed, nil
}

// hashJoinOp partitions the left rows on the pointer field at Open (the
// build side), then streams the distinct referenced OIDs in sorted order,
// dereferencing each at most once and only when the right side holds it.
// The surviving (right-side-hit) refs resolve lazily in sorted chunks
// through GetObjects, so the probe's page accesses batch per chunk while an
// early-closing consumer still skips the tail chunks entirely.
type hashJoinOp struct {
	joinBase
	partitions map[storage.OID][]algebra.Row
	rightBy    map[storage.OID][]algebra.Row
	refs       []storage.OID // sorted, filtered to right-side hits
	ri         int
}

func (o *hashJoinOp) Open() error {
	refs, err := o.build()
	if err != nil {
		return err
	}
	o.refs = o.hits(refs)
	return nil
}

// build drains both inputs, indexes the right rows by OID and partitions
// the left rows on the pointer field, returning every distinct referenced
// OID in sorted order.
func (o *hashJoinOp) build() ([]storage.OID, error) {
	lc, err := o.left.drain()
	if err != nil {
		return nil, err
	}
	rc, err := o.right.drain()
	if err != nil {
		return nil, err
	}
	o.rightBy = algebra.RowsByOID(rc, o.rightVar)
	if o.partitions, err = partitionByRef(o.alg, lc, o.leftVar, o.attr); err != nil {
		return nil, err
	}
	return sortedRefs(o.partitions), nil
}

// hits keeps the refs the right side holds: only those are dereferenced.
func (o *hashJoinOp) hits(refs []storage.OID) []storage.OID {
	out := make([]storage.OID, 0, len(refs))
	for _, ref := range refs {
		if _, hit := o.rightBy[ref]; hit {
			out = append(out, ref)
		}
	}
	return out
}

// partitionByRef is the build phase shared by the hash-partition and fusion
// joins: each left row, materialized, lands in the partition of every
// object its pointer field references.
func partitionByRef(alg *algebra.Algebra, lc *algebra.Collection, leftVar, attr string) (map[storage.OID][]algebra.Row, error) {
	partitions := make(map[storage.OID][]algebra.Row)
	for _, lrow := range lc.Rows {
		lb := lrow.Vars[leftVar]
		if err := alg.MaterializeBound(&lb); err != nil {
			return nil, err
		}
		lrow.Vars[leftVar] = lb
		for _, ref := range algebra.RefsOf(lb.Val, attr) {
			partitions[ref] = append(partitions[ref], lrow)
		}
	}
	return partitions, nil
}

// sortedRefs lists a partition map's referenced OIDs in sorted order.
func sortedRefs(partitions map[storage.OID][]algebra.Row) []storage.OID {
	refs := make([]storage.OID, 0, len(partitions))
	for ref := range partitions {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	return refs
}

// nextChunk takes the next joinBatchRows refs off a sorted probe list.
func nextChunk(refs []storage.OID, ri *int) []storage.OID {
	end := *ri + joinBatchRows
	if end > len(refs) {
		end = len(refs)
	}
	chunk := refs[*ri:end]
	*ri = end
	return chunk
}

func (o *hashJoinOp) NextBatch(b *RowBatch) (int, error) { return o.fill(b, o.produce) }

// produce dereferences the next sorted ref chunk into pending.
func (o *hashJoinOp) produce() (bool, error) {
	if o.ri >= len(o.refs) {
		return false, nil
	}
	chunk := nextChunk(o.refs, &o.ri)
	vals, _, err := o.alg.Cat.GetObjects(chunk)
	if err != nil {
		return false, err
	}
	o.pending = o.merge(o.pending, chunk, vals)
	return true, nil
}

// merge appends the joined rows of a dereferenced ref chunk to dst.
func (o *hashJoinOp) merge(dst []algebra.Row, chunk []storage.OID, vals []object.Value) []algebra.Row {
	for i, ref := range chunk {
		for _, lrow := range o.partitions[ref] {
			for _, rrow := range o.rightBy[ref] {
				merged := lrow.Merged(rrow)
				rb := merged.Vars[o.rightVar]
				rb.Val = vals[i]
				merged.Vars[o.rightVar] = rb
				dst = append(dst, merged)
			}
		}
	}
	return dst
}

// tasks runs the build (Open's) and splits the probe into page-aligned
// chunks of all sorted refs, each then filtered to the right side's hits; a
// worker dereferences a chunk in one page-ordered batch and merges it as
// produce does, against the shared read-only partition and right-side maps.
func (o *hashJoinOp) tasks() (taskSet, error) {
	refs, err := o.build()
	if err != nil {
		return taskSet{}, err
	}
	chunks := chunkOIDs(refs, exchangeOIDChunk)
	for i := range chunks {
		chunks[i] = o.hits(chunks[i])
	}
	return taskSet{
		n:       len(chunks),
		preload: func(t int, p *storage.Preload) error { return o.alg.Cat.PreloadObjects(p, chunks[t]) },
		run: func(_ *algebra.RowEvaluator, t int) ([]algebra.Row, int, error) {
			vals, _, err := o.alg.Cat.GetObjects(chunks[t])
			if err != nil {
				return nil, 0, err
			}
			return o.merge(nil, chunks[t], vals), len(chunks[t]), nil
		},
	}, nil
}

// fusionRight recognizes the plan shapes a fusion join can absorb as its
// right side: a bare extent bind, or a selection directly over one.
func fusionRight(p optimizer.Plan) (*optimizer.BindPlan, expr.Expr, bool) {
	switch n := p.(type) {
	case *optimizer.BindPlan:
		return n, nil, true
	case *optimizer.SelectPlan:
		if bp, ok := n.Input.(*optimizer.BindPlan); ok {
			return bp, n.Pred, true
		}
	}
	return nil, nil, false
}

// fusionJoinOp is the collection-fused navigation join (the Odra fusion
// algorithm) as a streaming operator: the whole left input is drained and
// partitioned on the pointer field at Open, and the distinct referents then
// resolve lazily in sorted chunks through GetObjects — the right extent is
// never scanned. The absorbed right bind contributes only a
// class-membership filter (the IS-A closure when the bind had EVERY/minus
// semantics, the direct class otherwise) and an optional predicate, both
// applied to the fetched values; right rows are synthesized, never read.
// Every distinct referent is fetched — misses (wrong class, failed
// predicate) are discovered on the fetched value, matching the algebra's
// joinFusion so read counts agree between batch and collection modes.
type fusionJoinOp struct {
	joinBase // right is nil: the bind-shaped right side is absorbed

	bind    *optimizer.BindPlan
	pred    expr.Expr   // nil → the right side was a bare bind
	predFn  expr.PredFn // self-mode compiled; nil → interpret through re
	re      *algebra.RowEvaluator
	resolve object.Resolver

	allowed    map[string]bool // class names the right bind admits
	partitions map[storage.OID][]algebra.Row
	refs       []storage.OID // sorted, every distinct referent
	ri         int
}

func (o *fusionJoinOp) Open() error {
	o.resolve = o.alg.Cat.Resolver()
	var err error
	if o.allowed, err = bindClasses(o.alg.Cat, o.bind); err != nil {
		return err
	}
	lc, err := o.left.drain()
	if err != nil {
		return err
	}
	o.partitions, err = partitionByRef(o.alg, lc, o.leftVar, o.attr)
	if err != nil {
		return err
	}
	o.refs = sortedRefs(o.partitions)
	return nil
}

func (o *fusionJoinOp) NextBatch(b *RowBatch) (int, error) { return o.fill(b, o.produce) }

// produce dereferences the next sorted referent chunk into pending.
func (o *fusionJoinOp) produce() (bool, error) {
	if o.ri >= len(o.refs) {
		return false, nil
	}
	chunk := nextChunk(o.refs, &o.ri)
	vals, names, err := o.alg.Cat.GetObjects(chunk)
	if err != nil {
		return false, err
	}
	for i, ref := range chunk {
		if !o.allowed[names[i]] {
			continue
		}
		rrow := algebra.Row{Vars: map[string]algebra.Bound{o.rightVar: {OID: ref, Val: vals[i]}}}
		if o.pred != nil {
			var keep bool
			if o.predFn != nil {
				keep, err = o.predFn(&vals[i], ref, o.resolve)
			} else {
				keep, err = o.re.EvalBool(rrow, o.pred)
			}
			if err != nil {
				return false, err
			}
			if !keep {
				continue
			}
		}
		for _, lrow := range o.partitions[ref] {
			o.pending = append(o.pending, lrow.Merged(rrow))
		}
	}
	return true, nil
}

func (o *fusionJoinOp) compiledPredicate() (active, full bool) {
	return o.pred != nil, o.predFn != nil
}

// accessPath tags each join strategy for the EXPLAIN ANALYZE access=
// annotation.
func (o *forwardJoinOp) accessPath() string  { return "forward" }
func (o *backwardJoinOp) accessPath() string { return "backward" }
func (o *bjiJoinOp) accessPath() string      { return "joinindex" }
func (o *hashJoinOp) accessPath() string     { return "hash" }
func (o *fusionJoinOp) accessPath() string   { return "fusion" }

// --- products and unions --------------------------------------------------

// crossOp is the unconstrained product: the right side is drained at Open
// (inner side), the left streams as the outer side.
type crossOp struct {
	left, right *compiled
	rightRows   []algebra.Row
	lbuf        RowBatch // outer rows pulled and not yet fully expanded
	ln, li, ri  int      // lbuf.Rows[li:ln] pending; ri indexes rightRows
}

func (o *crossOp) Open() error {
	rc, err := o.right.drain()
	if err != nil {
		return err
	}
	o.rightRows = rc.Rows
	return o.left.op.Open()
}

// NextBatch expands outer rows against the inner side, pulling exactly the
// outer rows the rest of b can hold (the last one perhaps only partly).
func (o *crossOp) NextBatch(b *RowBatch) (int, error) {
	n := 0
	for n < len(b.Rows) {
		if o.li < o.ln && len(o.rightRows) > 0 {
			lrow := o.lbuf.Rows[o.li]
			for o.ri < len(o.rightRows) && n < len(b.Rows) {
				b.Rows[n] = lrow.Merged(o.rightRows[o.ri])
				n++
				o.ri++
			}
			if o.ri == len(o.rightRows) {
				o.li, o.ri = o.li+1, 0
			}
			continue
		}
		need := len(b.Rows) - n
		if r := len(o.rightRows); r > 0 {
			need = (need + r - 1) / r
		}
		k, err := o.left.op.NextBatch(o.lbuf.sized(need))
		if err != nil {
			return 0, err
		}
		if k == 0 {
			break
		}
		o.ln, o.li = k, 0
	}
	return n, nil
}

func (o *crossOp) Close() error {
	err := o.left.op.Close()
	if err2 := o.right.op.Close(); err == nil {
		err = err2
	}
	return err
}

// unionOp concatenates its children's streams lazily (a child is opened
// only when the previous one is exhausted), deduplicating on the query's
// FROM-clause variables exactly as the materializing UNION does.
type unionOp struct {
	kids   []*compiled
	vars   []string
	ki     int
	opened bool
	seen   map[string]bool
	sub    RowBatch
}

func (o *unionOp) Open() error {
	o.seen = map[string]bool{}
	o.opened = true
	return o.kids[0].op.Open()
}

// NextBatch pulls each child into the unfilled tail of b and compacts the
// rows not seen before, so no child is read past what b can hold.
func (o *unionOp) NextBatch(b *RowBatch) (int, error) {
	n := 0
	for n < len(b.Rows) && o.ki < len(o.kids) {
		o.sub.Rows = b.Rows[n:]
		k, err := o.kids[o.ki].op.NextBatch(&o.sub)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			if err := o.kids[o.ki].op.Close(); err != nil {
				return 0, err
			}
			o.ki++
			if o.ki < len(o.kids) {
				if err := o.kids[o.ki].op.Open(); err != nil {
					return 0, err
				}
			}
			continue
		}
		for _, row := range o.sub.Rows[:k] {
			key := ""
			for _, v := range o.vars {
				key += fmt.Sprintf("%s=%d;", v, row.Vars[v].OID)
			}
			if o.seen[key] {
				continue
			}
			o.seen[key] = true
			b.Rows[n] = row
			n++
		}
	}
	return n, nil
}

func (o *unionOp) Close() error {
	var err error
	for i := o.ki; i < len(o.kids) && o.opened; i++ {
		if e2 := o.kids[i].op.Close(); err == nil {
			err = e2
		}
	}
	return err
}
