package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

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
// result, preserving the seed executor's *algebra.Collection API. Its rows
// are converted to the map-shaped algebra.Row at the root.
func (e *Executor) Execute(p optimizer.Plan) (*algebra.Collection, error) {
	root, err := e.compile(p, nil)
	if err != nil {
		return nil, err
	}
	return root.drain()
}

// ExecuteResult runs a plan through the streaming pipeline and extracts
// its Result straight from the row vectors: the Result of
// Extract(Execute(p)), without building a map-shaped row per result row.
func (e *Executor) ExecuteResult(p optimizer.Plan) (*Result, error) {
	root, err := e.compile(p, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	result, primary := root.binding(ResultVar), root.binding(root.hdr.Name)
	err = root.each(func(b *RowBatch, n int) {
		for i := 0; i < n; i++ {
			row := b.Row(i)
			r, hasR := result(row)
			pb, hasP := primary(row)
			res.add(r, hasR, pb, hasP, root.hdr.Name)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Compile lowers a plan into a physical-operator pipeline without running
// it, behind the root row cursor. The caller owns the lifecycle: Open, Next
// until exhausted, Close.
func (e *Executor) Compile(p optimizer.Plan) (*Cursor, error) {
	root, err := e.compile(p, nil)
	if err != nil {
		return nil, err
	}
	return &Cursor{root: root}, nil
}

// compile lays out the plan's rows — a slot per range variable it binds,
// and one for the projection result — and lowers it.
func (e *Executor) compile(p optimizer.Plan, an *analyzeCtx) (*compiled, error) {
	return e.compileNode(p, an, optimizer.NewLayout(p, ResultVar))
}

// each opens a compiled operator, hands fn every non-empty batch of its
// stream through one pooled batch, and closes it.
func (c *compiled) each(fn func(b *RowBatch, n int)) error {
	if err := c.op.Open(); err != nil {
		c.op.Close()
		return err
	}
	b := getBatch(c.lay.Width())
	used := 0 // the most rows a batch held
	defer func() { putBatch(b, used) }()
	for {
		n, err := c.op.NextBatch(b)
		if err != nil {
			c.op.Close()
			return err
		}
		if n == 0 {
			break
		}
		used = max(used, n)
		fn(b, n)
	}
	return c.op.Close()
}

// drain materializes a compiled operator's stream under its compile-time
// header, converting each row to the map-shaped algebra.Row.
func (c *compiled) drain() (*algebra.Collection, error) {
	out := &algebra.Collection{Kind: c.hdr.Kind, Name: c.hdr.Name, Class: c.hdr.Class}
	err := c.each(func(b *RowBatch, n int) {
		for i := 0; i < n; i++ {
			out.Rows = append(out.Rows, c.toRow(b.Row(i)))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// packed holds whole rows narrow: row i keeps only the bindings of slots,
// a node's schema, in slot order. The build sides, breakers and
// intersections hold a drained input this way, so a held row costs its
// schema's slots, not the plan's whole width.
type packed struct {
	RowBatch // width len(slots)
	slots    []int
}

func newPacked(slots []int) *packed {
	return &packed{RowBatch: RowBatch{width: len(slots)}, slots: slots}
}

// at is the position of a schema slot in a packed row.
func (p *packed) at(slot int) int { return slices.Index(p.slots, slot) }

// pack appends the schema slots of a full-width row.
func (p *packed) pack(row []algebra.Bound) {
	dst := p.add()
	for k, s := range p.slots {
		dst[k] = row[s]
	}
}

// put writes packed row i's bindings into their slots of a full-width row.
func (p *packed) put(dst []algebra.Bound, i int) {
	src := p.Row(i)
	for k, s := range p.slots {
		dst[s] = src[k]
	}
}

// maxPresizeRows caps the rows drainRows reserves on the plan's estimate.
const maxPresizeRows = 1 << 16

// drainRows collects a compiled operator's stream, packed to its schema:
// how the build sides, breakers and intersections hold a whole input
// without converting its rows.
func (c *compiled) drainRows() (*packed, error) {
	out := newPacked(c.slots)
	// Sized by the plan's estimate, a build side rarely grows by copying.
	out.Slots = make([]algebra.Bound, 0, min(int(c.plan.Card())+1, maxPresizeRows)*out.width)
	err := c.each(func(b *RowBatch, n int) {
		for i := 0; i < n; i++ {
			out.pack(b.Row(i))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// compiled pairs a plan node with its operator, compile-time header, and
// compiled children (the analysis tree EXPLAIN ANALYZE walks). op is the
// operator to drive (possibly a stats wrapper); raw is always the bare
// operator underneath. slots is the node's schema: the slots of lay its
// rows bind, ascending.
type compiled struct {
	plan  optimizer.Plan
	op    Operator
	raw   Operator
	hdr   optimizer.Header
	lay   *optimizer.Layout
	slots []int
	stats *opStats // non-nil when compiled for EXPLAIN ANALYZE
	kids  []*compiled
}

// slotMap names the node's schema slots: the layout its consumers'
// expressions compile against.
func (c *compiled) slotMap() map[string]int {
	m := make(map[string]int, len(c.slots))
	for _, s := range c.slots {
		m[c.lay.Names[s]] = s
	}
	return m
}

// binding returns a reader of one variable's binding in the node's rows;
// ok is false when the node does not bind it or a row leaves it unbound.
func (c *compiled) binding(name string) func(row []algebra.Bound) (algebra.Bound, bool) {
	s, ok := c.lay.Slot(name)
	if !ok || !slices.Contains(c.slots, s) {
		return func([]algebra.Bound) (algebra.Bound, bool) { return algebra.Bound{}, false }
	}
	return func(row []algebra.Bound) (algebra.Bound, bool) { return row[s], !row[s].Unbound() }
}

// toRow converts a row vector to the map-shaped algebra.Row of the node's
// schema: the boundary to the eager algebra and to ExecuteMaterialized's
// shape. An unbound slot — a union term's variable that the row's term
// does not bind — is left out, as the materializing union leaves it out.
func (c *compiled) toRow(row []algebra.Bound) algebra.Row {
	r := algebra.Row{Vars: make(map[string]algebra.Bound, len(c.slots))}
	for _, s := range c.slots {
		if !row[s].Unbound() {
			r.Vars[c.lay.Names[s]] = row[s]
		}
	}
	return r
}

// fromRow writes a map-shaped row into a row vector of the node's schema;
// a variable the row does not bind leaves its slot unbound.
func (c *compiled) fromRow(r algebra.Row, dst []algebra.Bound) {
	for _, s := range c.slots {
		dst[s] = r.Vars[c.lay.Names[s]]
	}
}

// unionSlots merges two ascending slot lists.
func unionSlots(a, b []int) []int {
	out := append(append([]int(nil), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// compileNode lowers one plan node against the plan's layout. When an is
// non-nil every operator is wrapped with per-operator instrumentation.
func (e *Executor) compileNode(p optimizer.Plan, an *analyzeCtx, lay *optimizer.Layout) (*compiled, error) {
	c := &compiled{plan: p, lay: lay}
	child := func(in optimizer.Plan) (*compiled, error) {
		k, err := e.compileNode(in, an, lay)
		if err != nil {
			return nil, err
		}
		c.kids = append(c.kids, k)
		return k, nil
	}
	slot := func(v string) int {
		s, _ := lay.Slot(v) // the layout holds every variable the plan binds
		return s
	}
	width := lay.Width()
	join := func(left, right *compiled, n *optimizer.JoinPlan) joinBase {
		return joinBase{
			alg: e.Alg, left: left, right: right,
			attr: n.Attribute, leftSlot: slot(n.LeftVar), rightSlot: slot(n.RightVar),
			pending: RowBatch{width: width}, in: RowBatch{width: width},
		}
	}

	switch n := p.(type) {
	case *optimizer.BindPlan:
		c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: n.Var, Class: n.Class}
		c.slots = []int{slot(n.Var)}
		c.op = e.scanOp(n, nil, c.slots[0])

	case *optimizer.IndSelPlan:
		c.hdr = optimizer.Header{Kind: algebra.SetKind, Name: n.Var, Class: n.Class}
		c.slots = []int{slot(n.Var)}
		c.op = &indSelOp{
			alg: e.Alg, class: n.Class, every: n.Every, varName: n.Var, slot: c.slots[0],
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
		c.slots = []int{slot(first.Var)}
		c.op = &intersectOp{
			alg: e.Alg, kids: kids, varName: first.Var, slot: c.slots[0],
			class: first.Class, every: first.Every, rechecks: rechecks,
		}

	case *optimizer.SelectPlan:
		if bp, ok := n.Input.(*optimizer.BindPlan); ok {
			// Fused scan-selection: the BIND child disappears from the
			// operator tree; EXPLAIN ANALYZE annotates the fused node.
			c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: bp.Var, Class: bp.Class}
			c.slots = []int{slot(bp.Var)}
			c.op = e.scanOp(bp, n.Pred, c.slots[0])
			break
		}
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr, c.slots = in.hdr, in.slots
		vars := in.slotMap()
		sel := &selectOp{in: in.op, re: e.Alg.NewSlotEvaluator(vars)}
		sel.fn, sel.full = e.queryFuncs().BoolFn(n.Pred, vars)
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
			c.slots = unionSlots([]int{slot(n.LeftVar)}, right.slots)
			c.op = &bjiJoinOp{joinBase: join(nil, right, n), index: e.BJIs[n.Index], leftBind: lb}
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
			c.slots = unionSlots(left.slots, []int{slot(n.RightVar)})
			op := &fusionJoinOp{
				joinBase: join(left, nil, n),
				bind:     bp,
				pred:     pred,
				re:       e.Alg.NewSlotEvaluator(map[string]int{bp.Var: slot(bp.Var)}),
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
		c.slots = unionSlots(left.slots, right.slots)
		var bji *joinindex.BinaryJoinIndex
		if n.Index != "" {
			bji = e.BJIs[n.Index]
		}
		j := join(left, right, n)
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
		c.slots = unionSlots(left.slots, right.slots)
		c.op = &crossOp{left: left, right: right, lbuf: RowBatch{width: width}}

	case *optimizer.UnionPlan:
		kids := make([]*compiled, 0, len(n.Inputs))
		for _, in := range n.Inputs {
			k, err := child(in)
			if err != nil {
				return nil, err
			}
			kids = append(kids, k)
			c.slots = unionSlots(c.slots, k.slots)
		}
		if len(kids) == 0 {
			return nil, fmt.Errorf("exec: UNION with no inputs")
		}
		c.hdr = kids[0].hdr
		u := &unionOp{kids: kids, unbind: make([][]int, len(kids))}
		for i, k := range kids {
			for _, s := range c.slots {
				if !slices.Contains(k.slots, s) {
					u.unbind[i] = append(u.unbind[i], s)
				}
			}
		}
		for _, v := range n.Vars {
			if s, ok := lay.Slot(v); ok && slices.Contains(c.slots, s) {
				u.keySlots = append(u.keySlots, s)
			}
		}
		c.op = u

	case *optimizer.ProjectPlan:
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: in.hdr.Name, Class: in.hdr.Class}
		c.slots = unionSlots(in.slots, []int{slot(ResultVar)})
		vars := in.slotMap()
		pop := &projectOp{
			in: in.op, items: n.Items, re: e.Alg.NewSlotEvaluator(vars), res: slot(ResultVar),
			fns: make([]expr.Fn, len(n.Items)), full: true,
		}
		for i, it := range n.Items {
			if it.Expr == nil { // star/aggregate items never reach the projection
				pop.full = false
				continue
			}
			var ok bool
			pop.fns[i], ok = e.queryFuncs().Fn(it.Expr, vars)
			pop.full = pop.full && ok
		}
		c.op = pop

	case *optimizer.GroupPlan:
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr = optimizer.Header{Kind: algebra.ExtentKind, Name: in.hdr.Name, Class: in.hdr.Class}
		c.slots = unionSlots(in.slots, []int{slot(ResultVar)})
		c.op = &breakerOp{in: in, run: func(rows *packed) (*packed, error) {
			return e.groupRows(in, c.slots, rows, n.By, n.Having, n.Projs)
		}}

	case *optimizer.SortPlan:
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr, c.slots = in.hdr, in.slots
		c.op = &breakerOp{in: in, run: func(rows *packed) (*packed, error) {
			return in.viaRows(rows, func(coll *algebra.Collection) (*algebra.Collection, error) {
				return e.sortRows(coll, n.Keys)
			})
		}}

	case *optimizer.DupElimPlan:
		in, err := child(n.Input)
		if err != nil {
			return nil, err
		}
		c.hdr, c.slots = in.hdr, in.slots
		c.op = &breakerOp{in: in, run: func(rows *packed) (*packed, error) {
			return in.viaRows(rows, func(coll *algebra.Collection) (*algebra.Collection, error) {
				return dedupByResult(coll), nil
			})
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
// is non-nil; its rows bind slot.
func (e *Executor) scanOp(bp *optimizer.BindPlan, pred expr.Expr, slot int) *scanSelectOp {
	op := &scanSelectOp{
		alg: e.Alg, class: bp.Class, varName: bp.Var, slot: slot,
		minus: bp.Minus, closure: bp.Every || len(bp.Minus) > 0, pred: pred,
	}
	if pred != nil {
		if op.predFn, op.attrs = e.queryFuncs().Predicate(bp.Var, pred); op.predFn == nil {
			op.re = op.evaluator()
		}
	}
	return op
}

// scanSelectOp streams a class extent through the catalog's page-at-a-time
// cursor — BIND(Class, var) — and fuses SELECT(BIND(...), P) into the same
// operator when it has a predicate: each object comes off the extent cursor
// and is filtered before it is written to a row slot. When the predicate
// lowers to self mode (compiled through the Function Manager's query
// registry) the per-object check is a direct closure call pushed into the
// cursor, and the cursor decodes in full only the objects it passes (see
// catalog.ScanFilter); otherwise (method calls) the slot is written and the
// predicate interpreted over the row.
type scanSelectOp struct {
	alg     *algebra.Algebra
	class   string
	varName string
	slot    int
	minus   []string
	closure bool
	pred    expr.Expr   // nil for a bare BIND
	predFn  expr.PredFn // self-mode compiled; nil → interpret through re
	attrs   []string    // the attributes predFn reads; nil → decode every object
	re      *algebra.RowEvaluator
	cur     *catalog.ExtentCursor
	decoded atomic.Int64 // records unmarshalled by earlier cursors and by tasks
}

// evaluator is an evaluator over the scan's one-variable rows, for the
// predicate the filter cannot run.
func (o *scanSelectOp) evaluator() *algebra.RowEvaluator {
	return o.alg.NewSlotEvaluator(map[string]int{o.varName: o.slot})
}

func (o *scanSelectOp) Open() error {
	cur, err := o.alg.Cat.OpenExtentScan(o.class, o.minus, o.closure)
	if err != nil {
		return err
	}
	if o.cur != nil {
		o.decoded.Add(o.cur.Decoded())
	}
	o.cur = cur
	cur.SetFilter(o.filter())
	return nil
}

// filter is the compiled predicate in the form the extent readers push into
// their page-decode loops: rejected objects are filtered in place, never
// buffered and, when the predicate's attribute set is known, never
// unmarshalled, so the fused operator pays little per non-matching object
// beyond the predicate call itself. Page reads are unchanged. The zero
// filter when there is no compiled predicate.
func (o *scanSelectOp) filter() catalog.ScanFilter {
	if o.predFn == nil {
		return catalog.ScanFilter{}
	}
	resolve := o.alg.Cat.Resolver()
	return catalog.ScanFilter{
		Keep: func(oid storage.OID, v *object.Value) (bool, error) {
			return o.predFn(v, oid, resolve)
		},
		Attrs: o.attrs,
	}
}

// emit writes an object the filter passed into its slot of row and
// interprets the predicate the filter could not run.
func (o *scanSelectOp) emit(re *algebra.RowEvaluator, oid storage.OID, v *object.Value, row []algebra.Bound) (bool, error) {
	row[o.slot] = algebra.Bound{OID: oid, Val: *v}
	if o.pred == nil || o.predFn != nil {
		return true, nil
	}
	env, err := re.SlotEnv(row)
	if err != nil {
		return false, err
	}
	return expr.EvalBool(o.pred, env)
}

// NextBatch pulls straight from the extent cursor; the cursor reads pages
// on demand, so a partially consumed batch never over-reads.
func (o *scanSelectOp) NextBatch(b *RowBatch) (int, error) {
	n := 0
	for n < b.Len() {
		oid, v, ok, err := o.cur.NextRef()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		keep, err := o.emit(o.re, oid, v, b.Row(n))
		if err != nil {
			return 0, err
		}
		if keep {
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
		eval:    o.evaluator,
		preload: func(t int, p *storage.Preload) error { return o.alg.Cat.PreloadMorsel(p, &morsels[t]) },
		run: func(re *algebra.RowEvaluator, t int, out *RowBatch) (int, error) {
			objs, decoded, err := o.alg.Cat.ReadMorselFiltered(&morsels[t], filter)
			o.decoded.Add(decoded)
			if err != nil {
				return 0, err
			}
			for i := range objs {
				keep, err := o.emit(re, objs[i].OID, &objs[i].Val, out.add())
				if err != nil {
					return 0, err
				}
				if !keep {
					out.drop()
				}
			}
			return len(morsels[t].Pages), nil
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

// decodedRecords is the number of records the scan unmarshalled.
func (o *scanSelectOp) decodedRecords() int64 {
	n := o.decoded.Load()
	if o.cur != nil {
		n += o.cur.Decoded()
	}
	return n
}

// withCandidatesOnly is implemented by operators that can restrict
// themselves to the index probe (no object fetches); the streaming
// intersect switches its INDSEL children into this mode.
type withCandidatesOnly interface{ candidatesOnly() }

// indSelOp is INDSEL(Class, var, index, P): the index probe happens at
// Open, object fetches and the predicate re-check stream per NextBatch. A
// fetched candidate of a class the variable does not range over (the index
// holds its class's whole closure) is dropped like one the re-check
// rejects. In candidates-only mode it emits the probed OIDs without
// fetching; the consuming intersect then drops them.
type indSelOp struct {
	alg       *algebra.Algebra
	class     string
	every     bool
	varName   string
	slot      int
	indexKind catalog.IndexKind
	pred      algebra.SimplePredicate
	probeOnly bool
	funcs     *funcmgr.QueryRegistry

	oids    []storage.OID
	i       int
	allowed map[string]bool // class names the variable ranges over
	recheck expr.Expr
	predFn  expr.PredFn // nil → interpret the recheck through re
	resolve object.Resolver
	re      *algebra.RowEvaluator
}

func (o *indSelOp) candidatesOnly() { o.probeOnly = true }

// evaluator is an evaluator over the selection's one-variable rows.
func (o *indSelOp) evaluator() *algebra.RowEvaluator {
	return o.alg.NewSlotEvaluator(map[string]int{o.varName: o.slot})
}

func (o *indSelOp) Open() error {
	oids, err := o.alg.IndSelCandidates(o.class, o.indexKind, o.pred)
	if err != nil {
		return err
	}
	o.oids = oids
	if !o.probeOnly {
		if o.allowed, err = bindClasses(o.alg.Cat, o.class, o.every, nil); err != nil {
			return err
		}
		o.recheck = o.alg.RecheckExpr(o.varName, o.pred)
		o.re = o.evaluator()
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
	for n < b.Len() && o.i < len(o.oids) {
		oid := o.oids[o.i]
		o.i++
		if !o.probeOnly {
			v, name, err := o.alg.Cat.GetObject(oid)
			if err != nil {
				return 0, err
			}
			if !o.allowed[name] {
				continue
			}
			ok, err := o.recheckOne(o.re, oid, &v)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
		}
		b.Row(n)[o.slot] = algebra.Bound{OID: oid} // as in IndSel, the identifier only
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
	env, err := re.BindOne(o.slot, algebra.Bound{OID: oid, Val: *v})
	if err != nil {
		return false, err
	}
	return expr.EvalBool(o.recheck, env)
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
		eval:    o.evaluator,
		preload: func(t int, p *storage.Preload) error { return o.alg.Cat.PreloadObjects(p, chunks[t]) },
		run: func(re *algebra.RowEvaluator, t int, out *RowBatch) (int, error) {
			vals, names, err := o.alg.Cat.GetObjects(chunks[t])
			if err != nil {
				return 0, err
			}
			for i, oid := range chunks[t] {
				if !o.allowed[names[i]] {
					continue
				}
				ok, err := o.recheckOne(re, oid, &vals[i])
				if err != nil {
					return 0, err
				}
				if ok {
					out.add()[o.slot] = algebra.Bound{OID: oid}
				}
			}
			return len(chunks[t]), nil
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
	slot     int
	class    string // the inputs' class and EVERY, as in indSelOp
	every    bool
	rechecks []expr.Expr

	oids    []storage.OID
	i       int
	allowed map[string]bool
	re      *algebra.RowEvaluator
}

func (o *intersectOp) Open() error {
	var first []storage.OID
	var rest []map[storage.OID]bool
	for ki, kid := range o.kids {
		cands, err := kid.drainRows()
		if err != nil {
			return err
		}
		if ki == 0 {
			for i := 0; i < cands.Len(); i++ {
				first = append(first, cands.Row(i)[0].OID)
			}
			continue
		}
		set := make(map[storage.OID]bool, cands.Len())
		for i := 0; i < cands.Len(); i++ {
			set[cands.Row(i)[0].OID] = true
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
	o.re = o.alg.NewSlotEvaluator(map[string]int{o.varName: o.slot})
	var err error
	o.allowed, err = bindClasses(o.alg.Cat, o.class, o.every, nil)
	return err
}

func (o *intersectOp) NextBatch(b *RowBatch) (int, error) {
	n := 0
next:
	for n < b.Len() && o.i < len(o.oids) {
		oid := o.oids[o.i]
		o.i++
		v, name, err := o.alg.Cat.GetObject(oid)
		if err != nil {
			return 0, err
		}
		if !o.allowed[name] {
			continue
		}
		env, err := o.re.BindOne(o.slot, algebra.Bound{OID: oid, Val: v})
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
		b.Row(n)[o.slot] = algebra.Bound{OID: oid}
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
// as a closure compiled against the input's slots; subtrees that do not
// lower (method calls) interpret inside it.
type selectOp struct {
	in   Operator
	re   *algebra.RowEvaluator
	fn   expr.BoolFn
	full bool
}

func (o *selectOp) Open() error { return o.in.Open() }

// NextBatch filters the child's batch in place, pulling more input until at
// least one row survives or the input ends (a 0 return means exhaustion).
// Asking the child for b.Len() rows never consumes input past the last
// row a full b needs.
func (o *selectOp) NextBatch(b *RowBatch) (int, error) {
	for {
		n, err := o.in.NextBatch(b)
		if err != nil || n == 0 {
			return 0, err
		}
		w := 0
		for i := 0; i < n; i++ {
			row := b.Row(i)
			keep, err := o.re.EvalSlots(row, o.fn)
			if err != nil {
				return 0, err
			}
			if keep {
				if w != i {
					copy(b.Row(w), row)
				}
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

// projectOp evaluates the projection list per row and writes the tuple into
// the ResultVar slot. The item expressions run as closures compiled against
// the input's slots.
type projectOp struct {
	in    Operator
	items []sql.ProjItem
	re    *algebra.RowEvaluator
	res   int // the ResultVar slot
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
// the child's count is the output count. Every tuple shares the
// operator's name list; values are immutable once built.
func (o *projectOp) NextBatch(b *RowBatch) (int, error) {
	n, err := o.in.NextBatch(b)
	if err != nil || n == 0 {
		return 0, err
	}
	for i := 0; i < n; i++ {
		row := b.Row(i)
		env, err := o.re.SlotEnv(row)
		if err != nil {
			return 0, err
		}
		fields := make([]object.Value, len(o.items))
		for j, it := range o.items {
			if o.fns[j] != nil {
				fields[j], err = o.fns[j](env)
			} else {
				fields[j], err = it.Expr.Eval(env)
			}
			if err != nil {
				return 0, err
			}
		}
		row[o.res] = algebra.Bound{Val: object.Value{Kind: object.KindTuple, Names: o.names, Fields: fields}}
	}
	return n, nil
}

func (o *projectOp) Close() error { return o.in.Close() }

func (o *projectOp) compiledPredicate() (active, full bool) { return true, o.full }

// --- pipeline breakers ----------------------------------------------------

// breakerOp drains its input at Open and applies a whole-input transform
// (sort, group, dup-elim) — the explicit pipeline breakers.
type breakerOp struct {
	in   *compiled
	run  func(rows *packed) (*packed, error)
	rows *packed
	i    int
}

func (o *breakerOp) Open() error {
	rows, err := o.in.drainRows()
	if err != nil {
		return err
	}
	o.rows, err = o.run(rows)
	return err
}

// NextBatch unpacks a run of the transformed rows.
func (o *breakerOp) NextBatch(b *RowBatch) (int, error) {
	n := min(b.Len(), o.rows.Len()-o.i)
	for k := 0; k < n; k++ {
		o.rows.put(b.Row(k), o.i+k)
	}
	o.i += n
	return n, nil
}

func (o *breakerOp) Close() error { return o.in.op.Close() }

// viaRows runs a whole-collection transform over drained rows: the rows
// cross the boundary to the map-shaped algebra.Row and back. Sort and
// dup-elim run this way.
func (c *compiled) viaRows(rows *packed, run func(*algebra.Collection) (*algebra.Collection, error)) (*packed, error) {
	wide := make([]algebra.Bound, c.lay.Width())
	coll := &algebra.Collection{Kind: c.hdr.Kind, Name: c.hdr.Name, Class: c.hdr.Class, Rows: make([]algebra.Row, rows.Len())}
	for i := range coll.Rows {
		rows.put(wide, i)
		coll.Rows[i] = c.toRow(wide)
	}
	res, err := run(coll)
	if err != nil {
		return nil, err
	}
	out := newPacked(rows.slots)
	for _, r := range res.Rows {
		c.fromRow(r, wide)
		out.pack(wide)
	}
	return out, nil
}

// --- joins ----------------------------------------------------------------

// joinBase carries the fields shared by the join strategies. pending
// buffers the joined rows one production step made (a single driving row
// can match several rows on the other side).
type joinBase struct {
	alg                 *algebra.Algebra
	left, right         *compiled
	attr                string
	leftSlot, rightSlot int // the join variables' slots

	pending RowBatch // growable
	pi      int      // pending rows already handed out
	in      RowBatch // the driving rows pull gathers
	sub     RowBatch // the sub-batch a strategy pulls its streaming input into
	eof     bool     // the input pull reads is exhausted
}

// fill is every join's NextBatch: it moves pending rows into b and calls
// produce for the next step only while b has room, so a join does no more
// reading than the batch it was handed needs. produce appends to pending
// and reports false once the join is exhausted.
func (j *joinBase) fill(b *RowBatch, produce func() (bool, error)) (int, error) {
	n, w := 0, b.width
	for {
		k := min(b.Len()-n, j.pending.Len()-j.pi)
		copy(b.Slots[n*w:(n+k)*w], j.pending.Slots[j.pi*w:(j.pi+k)*w])
		j.pi += k
		n += k
		if n == b.Len() {
			return n, nil
		}
		j.pending.reset()
		j.pi = 0
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

// pull takes the next joinBatchRows rows off in into j.in, asking for
// exactly the rows still missing so it never reads past the step, and sets
// eof once in is exhausted. The rows stay valid until the next pull.
func (j *joinBase) pull(in *compiled) (*RowBatch, error) {
	batch := j.in.sized(joinBatchRows)
	n := 0
	for n < joinBatchRows {
		k, err := in.op.NextBatch(j.sub.tail(batch, n))
		if err != nil {
			return nil, err
		}
		if k == 0 {
			j.eof = true
			break
		}
		n += k
	}
	batch.Slots = batch.Slots[:n*batch.width]
	return batch, nil
}

// rowsByOID indexes rows by the OID bound in slot, skipping rows that bind
// none, as algebra.RowsByOID does.
func rowsByOID(rows *packed, slot int) map[storage.OID][]int {
	m := make(map[storage.OID][]int, rows.Len())
	k := rows.at(slot)
	for i := 0; i < rows.Len(); i++ {
		if oid := rows.Row(i)[k].OID; !oid.IsNil() {
			m[oid] = append(m[oid], i)
		}
	}
	return m
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
// Open and indexed by OID. The left side is consumed joinBatchRows rows per
// step: each step's distinct references resolve through one page-ordered
// GetObjects call instead of a random dereference per occurrence.
type forwardJoinOp struct {
	joinBase
	rightRows *packed
	rightBy   map[storage.OID][]int
}

func (o *forwardJoinOp) Open() error {
	var err error
	if o.rightRows, err = o.right.drainRows(); err != nil {
		return err
	}
	o.rightBy = rowsByOID(o.rightRows, o.rightSlot)
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
	batchRefs := make([][]storage.OID, batch.Len())
	for i := range batchRefs {
		lb := &batch.Row(i)[o.leftSlot]
		if err := o.alg.MaterializeBound(lb); err != nil {
			return false, err
		}
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
	for i, lrefs := range batchRefs {
		lrow := batch.Row(i)
		for _, ref := range lrefs {
			val := vals[at[ref]]
			for _, ri := range o.rightBy[ref] {
				row := o.pending.add()
				copy(row, lrow)
				o.rightRows.put(row, ri)
				row[o.rightSlot].Val = val
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
	leftRows, rightRows *packed
	leftBy, rightBy     map[storage.OID][]int
	cur                 *catalog.ExtentCursor
}

func (o *backwardJoinOp) Open() error {
	if o.left.hdr.Class == "" {
		return fmt.Errorf("algebra: backward traversal needs the left class")
	}
	var err error
	if o.leftRows, err = o.left.drainRows(); err != nil {
		return err
	}
	if o.rightRows, err = o.right.drainRows(); err != nil {
		return err
	}
	o.leftBy = rowsByOID(o.leftRows, o.leftSlot)
	o.rightBy = rowsByOID(o.rightRows, o.rightSlot)
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
		at := o.leftRows.at(o.leftSlot)
		for _, li := range lrows {
			o.leftRows.Row(li)[at].Val = v
			for _, ri := range rrows {
				row := o.pending.add()
				o.leftRows.put(row, li)
				o.rightRows.put(row, ri)
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
	index    *joinindex.BinaryJoinIndex
	leftRows *packed
	leftBy   map[storage.OID][]int

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
		if o.allowed, err = bindClasses(o.alg.Cat, o.leftBind.Class, o.leftBind.Every, o.leftBind.Minus); err != nil {
			return err
		}
		return o.right.op.Open()
	}
	var err error
	if o.leftRows, err = o.left.drainRows(); err != nil {
		return err
	}
	o.leftBy = rowsByOID(o.leftRows, o.leftSlot)
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
	k, err := o.right.op.NextBatch(o.in.sized(1))
	if err != nil || k == 0 {
		return false, err
	}
	rrow := o.in.Row(0)
	sources, err := o.index.Backward(rrow[o.rightSlot].OID)
	if err != nil {
		return false, err
	}
	for _, src := range sources {
		for _, li := range o.leftBy[src] {
			row := o.pending.add()
			o.leftRows.put(row, li)
			for _, s := range o.right.slots {
				row[s] = rrow[s]
			}
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
	if err != nil || batch.Len() == 0 {
		return false, err
	}
	sources := make([][]storage.OID, batch.Len())
	for i := range sources {
		if sources[i], err = o.index.Backward(batch.Row(i)[o.rightSlot].OID); err != nil {
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
	for i, srcs := range sources {
		rrow := batch.Row(i)
		for _, src := range srcs {
			j := at[src]
			if !o.allowed[names[j]] {
				continue
			}
			row := o.pending.add()
			row[o.leftSlot] = algebra.Bound{OID: src, Val: vals[j]}
			for _, s := range o.right.slots {
				row[s] = rrow[s]
			}
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

// bindClasses is the set of class names a bind of class yields objects of:
// the class alone for a bare bind (its direct extent), its IS-A closure
// under EVERY or an exclusion, less the closures of the excluded subclasses.
func bindClasses(cat *catalog.Catalog, class string, every bool, minus []string) (map[string]bool, error) {
	if !every && len(minus) == 0 {
		return map[string]bool{class: true}, nil
	}
	closure, err := cat.Closure(class)
	if err != nil {
		return nil, err
	}
	allowed := make(map[string]bool, len(closure))
	for _, name := range closure {
		allowed[name] = true
	}
	for _, m := range minus {
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
	leftRows, rightRows *packed
	partitions          map[storage.OID][]int
	rightBy             map[storage.OID][]int
	refs                []storage.OID // sorted, filtered to right-side hits
	ri                  int
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
	var err error
	if o.leftRows, err = o.left.drainRows(); err != nil {
		return nil, err
	}
	if o.rightRows, err = o.right.drainRows(); err != nil {
		return nil, err
	}
	o.rightBy = rowsByOID(o.rightRows, o.rightSlot)
	if o.partitions, err = partitionByRef(o.alg, o.leftRows, o.leftSlot, o.attr); err != nil {
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
// joins: each left row, its slot materialized in place, lands in the
// partition of every object its pointer field references.
func partitionByRef(alg *algebra.Algebra, rows *packed, slot int, attr string) (map[storage.OID][]int, error) {
	partitions := make(map[storage.OID][]int)
	k := rows.at(slot)
	for i := 0; i < rows.Len(); i++ {
		lb := &rows.Row(i)[k]
		if err := alg.MaterializeBound(lb); err != nil {
			return nil, err
		}
		for _, ref := range algebra.RefsOf(lb.Val, attr) {
			partitions[ref] = append(partitions[ref], i)
		}
	}
	return partitions, nil
}

// sortedRefs lists a partition map's referenced OIDs in sorted order.
func sortedRefs(partitions map[storage.OID][]int) []storage.OID {
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
	o.merge(&o.pending, chunk, vals)
	return true, nil
}

// merge appends the joined rows of a dereferenced ref chunk to dst.
func (o *hashJoinOp) merge(dst *RowBatch, chunk []storage.OID, vals []object.Value) {
	for i, ref := range chunk {
		for _, li := range o.partitions[ref] {
			for _, ri := range o.rightBy[ref] {
				row := dst.add()
				o.leftRows.put(row, li)
				o.rightRows.put(row, ri)
				row[o.rightSlot].Val = vals[i]
			}
		}
	}
}

// tasks runs the build (Open's) and splits the probe into page-aligned
// chunks of all sorted refs, each then filtered to the right side's hits; a
// worker dereferences a chunk in one page-ordered batch and merges it as
// produce does, against the shared read-only partitions and right rows.
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
		run: func(_ *algebra.RowEvaluator, t int, out *RowBatch) (int, error) {
			vals, _, err := o.alg.Cat.GetObjects(chunks[t])
			if err != nil {
				return 0, err
			}
			o.merge(out, chunks[t], vals)
			return len(chunks[t]), nil
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
	leftRows   *packed
	partitions map[storage.OID][]int
	refs       []storage.OID // sorted, every distinct referent
	ri         int
}

func (o *fusionJoinOp) Open() error {
	o.resolve = o.alg.Cat.Resolver()
	var err error
	if o.allowed, err = bindClasses(o.alg.Cat, o.bind.Class, o.bind.Every, o.bind.Minus); err != nil {
		return err
	}
	if o.leftRows, err = o.left.drainRows(); err != nil {
		return err
	}
	o.partitions, err = partitionByRef(o.alg, o.leftRows, o.leftSlot, o.attr)
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
		rb := algebra.Bound{OID: ref, Val: vals[i]}
		if o.pred != nil {
			keep, err := o.keep(rb)
			if err != nil {
				return false, err
			}
			if !keep {
				continue
			}
		}
		for _, li := range o.partitions[ref] {
			row := o.pending.add()
			o.leftRows.put(row, li)
			row[o.rightSlot] = rb
		}
	}
	return true, nil
}

// keep runs the absorbed bind's predicate on a fetched referent.
func (o *fusionJoinOp) keep(rb algebra.Bound) (bool, error) {
	if o.predFn != nil {
		return o.predFn(&rb.Val, rb.OID, o.resolve)
	}
	env, err := o.re.BindOne(o.rightSlot, rb)
	if err != nil {
		return false, err
	}
	return expr.EvalBool(o.pred, env)
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
	rightRows   *packed
	lbuf        RowBatch // outer rows pulled and not yet fully expanded
	ln, li, ri  int      // lbuf rows li..ln-1 pending; ri indexes rightRows
}

func (o *crossOp) Open() error {
	var err error
	if o.rightRows, err = o.right.drainRows(); err != nil {
		return err
	}
	return o.left.op.Open()
}

// NextBatch expands outer rows against the inner side, pulling exactly the
// outer rows the rest of b can hold (the last one perhaps only partly).
func (o *crossOp) NextBatch(b *RowBatch) (int, error) {
	n, nr := 0, o.rightRows.Len()
	for n < b.Len() {
		if o.li < o.ln && nr > 0 {
			lrow := o.lbuf.Row(o.li)
			for o.ri < nr && n < b.Len() {
				row := b.Row(n)
				copy(row, lrow)
				o.rightRows.put(row, o.ri)
				n++
				o.ri++
			}
			if o.ri == nr {
				o.li, o.ri = o.li+1, 0
			}
			continue
		}
		need := b.Len() - n
		if nr > 0 {
			need = (need + nr - 1) / nr
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
// FROM-clause variables exactly as the materializing UNION does. A child's
// row leaves unbound the slots of variables only other children bind.
type unionOp struct {
	kids     []*compiled
	unbind   [][]int // per child: the union's slots the child does not bind
	keySlots []int   // the FROM-clause variables' slots
	ki       int
	opened   bool
	seen     map[string]bool
	key      []byte
	sub      RowBatch
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
	for n < b.Len() && o.ki < len(o.kids) {
		base := n
		k, err := o.kids[o.ki].op.NextBatch(o.sub.tail(b, base))
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
		for i := 0; i < k; i++ {
			row := b.Row(base + i)
			for _, s := range o.unbind[o.ki] {
				row[s] = algebra.Bound{}
			}
			o.key = o.key[:0]
			for _, s := range o.keySlots {
				o.key = binary.LittleEndian.AppendUint64(o.key, uint64(row[s].OID))
			}
			if o.seen[string(o.key)] {
				continue
			}
			o.seen[string(o.key)] = true
			if n != base+i {
				copy(b.Row(n), row)
			}
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
