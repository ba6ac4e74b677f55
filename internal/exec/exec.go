// Package exec executes the access plans the optimizer produces, walking
// them bottom-up through the MOOD algebra. The clause order of Figure 7.1
// (FROM → WHERE → GROUP BY → HAVING → SELECT → ORDER BY) and the WHERE-
// clause operator order of Figure 7.2 (Select → Join → Project → Union) are
// realized by the plan shapes themselves; the executor simply evaluates
// each node.
package exec

import (
	"fmt"
	"sort"
	"strings"

	"mood/internal/algebra"
	"mood/internal/expr"
	"mood/internal/funcmgr"
	"mood/internal/joinindex"
	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/sql"
	"mood/internal/storage"
)

// ResultVar is the reserved binding under which projected/aggregated tuples
// travel; later plan stages (ORDER BY on an alias) resolve names against it.
const ResultVar = "$result"

// Executor evaluates plans over one algebra instance.
type Executor struct {
	Alg *algebra.Algebra
	// BJIs resolves binary-join-index names referenced by plans.
	BJIs map[string]*joinindex.BinaryJoinIndex
	// Pages reports the cumulative simulated page-read counter of the
	// underlying store — on a sharded store, the SUM of every shard's
	// DiskSim reads, so the total==disk-delta invariant holds whichever
	// shard served a page. The kernel wires it; nil leaves page counts at
	// zero.
	Pages func() int64
	// ShardPages reports the per-shard cumulative read counters (one entry
	// on a single store). EXPLAIN ANALYZE snapshots it around the run to
	// annotate the total with each shard's contribution; nil (or a single
	// entry) omits the annotation.
	ShardPages func() []int64
	// CacheHits/CacheMisses report the object cache's cumulative counters
	// and Prefetched the pages loaded by the readahead workers. The kernel
	// wires them when the features are on; nil makes EXPLAIN ANALYZE omit
	// the corresponding annotations.
	CacheHits   func() int64
	CacheMisses func() int64
	Prefetched  func() int64
	// ClusterRefs/ClusterPages report the clustering tracer's cumulative
	// batched-fetch counters: references resolved and distinct
	// (post-forwarding) pages they landed on. EXPLAIN ANALYZE deltas them
	// per operator and renders clustered=refs/pages — the measured locality
	// the reorganizer is trying to improve. The kernel wires them when
	// tracing is on; nil omits the annotation.
	ClusterRefs  func() int64
	ClusterPages func() int64
	// Quiesce blocks until in-flight readahead loads land. ExecuteAnalyzed
	// calls it before the final page snapshot so TotalPages still equals
	// the simulated-disk read delta with async prefetch running.
	Quiesce func()
	// Funcs resolves compiled predicate/projection closures by expression
	// signature — the Function Manager's query-fragment registry. The kernel
	// shares its funcmgr.Manager registry here; a standalone executor gets a
	// private one from New.
	Funcs *funcmgr.QueryRegistry
}

// New creates an executor.
func New(alg *algebra.Algebra) *Executor {
	return &Executor{
		Alg:   alg,
		BJIs:  map[string]*joinindex.BinaryJoinIndex{},
		Funcs: funcmgr.NewQueryRegistry(),
	}
}

// queryFuncs returns the fragment registry, creating one on first use for
// executors constructed without New.
func (e *Executor) queryFuncs() *funcmgr.QueryRegistry {
	if e.Funcs == nil {
		e.Funcs = funcmgr.NewQueryRegistry()
	}
	return e.Funcs
}

// ExecuteMaterialized runs a plan bottom-up, fully materializing every
// operator's output collection before its parent runs — the paper's original
// Figure 7.1/7.2 evaluation strategy. It is retained as the reference
// implementation the streaming pipeline (stream.go) is differential-tested
// against.
func (e *Executor) ExecuteMaterialized(p optimizer.Plan) (*algebra.Collection, error) {
	switch n := p.(type) {
	case *optimizer.BindPlan:
		if n.Every || len(n.Minus) > 0 {
			return e.Alg.Bind(n.Class, n.Var, n.Minus...)
		}
		return e.Alg.BindDirect(n.Class, n.Var)

	case *optimizer.IndSelPlan:
		allowed, err := bindClasses(e.Alg.Cat, n.Class, n.Every, nil)
		if err != nil {
			return nil, err
		}
		return e.Alg.IndSel(n.Class, n.Var, n.Index.Kind, n.Pred, allowed)

	case *optimizer.IntersectPlan:
		cur, err := e.ExecuteMaterialized(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		for _, in := range n.Inputs[1:] {
			next, err := e.ExecuteMaterialized(in)
			if err != nil {
				return nil, err
			}
			if cur, err = e.Alg.Intersection(cur, next); err != nil {
				return nil, err
			}
		}
		return cur, nil

	case *optimizer.SelectPlan:
		in, err := e.ExecuteMaterialized(n.Input)
		if err != nil {
			return nil, err
		}
		return e.Alg.Select(in, n.Pred, false)

	case *optimizer.JoinPlan:
		left, err := e.ExecuteMaterialized(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.ExecuteMaterialized(n.Right)
		if err != nil {
			return nil, err
		}
		spec := algebra.JoinSpec{
			Method: n.Method, LeftVar: n.LeftVar,
			Attribute: n.Attribute, RightVar: n.RightVar,
		}
		if n.Index != "" {
			spec.Index = e.BJIs[n.Index]
		}
		return e.Alg.Join(left, right, spec)

	case *optimizer.CrossPlan:
		left, err := e.ExecuteMaterialized(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.ExecuteMaterialized(n.Right)
		if err != nil {
			return nil, err
		}
		return crossProduct(left, right), nil

	case *optimizer.UnionPlan:
		// UNION of the AND-term sub-plans, deduplicated on the query's
		// FROM-clause variables (intermediate path variables differ
		// between terms and must not defeat the dedup).
		var out *algebra.Collection
		seen := map[string]bool{}
		for _, in := range n.Inputs {
			c, err := e.ExecuteMaterialized(in)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = &algebra.Collection{Kind: c.Kind, Name: c.Name, Class: c.Class}
			}
			for _, row := range c.Rows {
				key := ""
				for _, v := range n.Vars {
					key += fmt.Sprintf("%s=%d;", v, row.Vars[v].OID)
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil

	case *optimizer.ProjectPlan:
		in, err := e.ExecuteMaterialized(n.Input)
		if err != nil {
			return nil, err
		}
		return e.project(in, n.Items)

	case *optimizer.GroupPlan:
		in, err := e.ExecuteMaterialized(n.Input)
		if err != nil {
			return nil, err
		}
		return e.group(in, n.By, n.Having, n.Projs)

	case *optimizer.SortPlan:
		in, err := e.ExecuteMaterialized(n.Input)
		if err != nil {
			return nil, err
		}
		return e.sortRows(in, n.Keys)

	case *optimizer.DupElimPlan:
		in, err := e.ExecuteMaterialized(n.Input)
		if err != nil {
			return nil, err
		}
		return dedupByResult(in), nil

	case *optimizer.ExchangePlan:
		// Exchange only changes scheduling, never results; the materializing
		// reference path runs its input serially.
		return e.ExecuteMaterialized(n.Input)
	}
	return nil, fmt.Errorf("exec: unknown plan node %T", p)
}

// env builds the expression environment for one row.
func (e *Executor) rowEnv(row algebra.Row) (*expr.Env, error) {
	env := &expr.Env{
		Vars:    map[string]object.Value{},
		OIDs:    map[string]storage.OID{},
		Resolve: e.Alg.Cat.Resolver(),
		Invoke:  e.Alg.Invoke,
	}
	for name, b := range row.Vars {
		if b.Val.IsNull() && !b.OID.IsNil() {
			v, _, err := e.Alg.Cat.GetObject(b.OID)
			if err != nil {
				return nil, err
			}
			b.Val = v
		}
		env.Vars[name] = b.Val
		env.OIDs[name] = b.OID
	}
	return env, nil
}

// outName derives the output column name of a projection item.
func outName(it sql.ProjItem, idx int) string {
	if it.As != "" {
		return it.As
	}
	if it.Agg != sql.AggNone {
		if it.Star || it.Expr == nil {
			return strings.ToLower(it.Agg.String())
		}
		return strings.ToLower(it.Agg.String()) + "_" + lastNameOf(it.Expr)
	}
	if it.Expr != nil {
		return lastNameOf(it.Expr)
	}
	return fmt.Sprintf("col%d", idx)
}

func lastNameOf(e expr.Expr) string {
	if ref, ok := sql.PathOf(e); ok {
		if len(ref.Path) > 0 {
			return ref.Path[len(ref.Path)-1]
		}
		return ref.Var
	}
	return strings.ReplaceAll(e.String(), " ", "")
}

// project evaluates a non-aggregate projection list, attaching the result
// tuple to each row under ResultVar (the PROJECT operator's "extent of the
// tuple type values").
func (e *Executor) project(in *algebra.Collection, items []sql.ProjItem) (*algebra.Collection, error) {
	out := &algebra.Collection{Kind: algebra.ExtentKind, Name: in.Name, Class: in.Class}
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = outName(it, i)
	}
	for _, row := range in.Rows {
		env, err := e.rowEnv(row)
		if err != nil {
			return nil, err
		}
		fields := make([]object.Value, len(items))
		for i, it := range items {
			v, err := it.Expr.Eval(env)
			if err != nil {
				return nil, err
			}
			fields[i] = v
		}
		nr := algebra.Row{Vars: map[string]algebra.Bound{}}
		for k, v := range row.Vars {
			nr.Vars[k] = v
		}
		nr.Vars[ResultVar] = algebra.Bound{Val: object.NewTuple(names, fields)}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// aggState accumulates one aggregate.
type aggState struct {
	kind  sql.AggKind
	count int64
	sum   float64
	min   object.Value
	max   object.Value
	isInt bool
	any   bool
}

func (a *aggState) add(v object.Value) {
	if v.IsNull() {
		return
	}
	a.count++
	if f, ok := v.AsFloat(); ok {
		a.sum += f
		if v.Kind == object.KindInteger || v.Kind == object.KindLongInteger {
			a.isInt = true
		}
	}
	if !a.any {
		a.min, a.max, a.any = v, v, true
		return
	}
	if cmp, ok := object.Compare(v, a.min); ok && cmp < 0 {
		a.min = v
	}
	if cmp, ok := object.Compare(v, a.max); ok && cmp > 0 {
		a.max = v
	}
}

func (a *aggState) result() object.Value {
	switch a.kind {
	case sql.AggCount:
		return object.NewLong(a.count)
	case sql.AggSum:
		if a.isInt {
			return object.NewLong(int64(a.sum))
		}
		return object.NewFloat(a.sum)
	case sql.AggAvg:
		if a.count == 0 {
			return object.Null
		}
		return object.NewFloat(a.sum / float64(a.count))
	case sql.AggMin:
		if !a.any {
			return object.Null
		}
		return a.min
	case sql.AggMax:
		if !a.any {
			return object.Null
		}
		return a.max
	}
	return object.Null
}

// group implements GROUP BY + HAVING + the aggregate projection. Each
// output row carries the aggregated tuple under ResultVar plus a
// representative input row's bindings (so later ORDER BY on group keys
// still resolves).
func (e *Executor) group(in *algebra.Collection, by []sql.PathRef, having expr.Expr, projs []sql.ProjItem) (*algebra.Collection, error) {
	out := &algebra.Collection{Kind: algebra.ExtentKind, Name: in.Name, Class: in.Class}
	err := e.groupCore(len(in.Rows), func(i int) (*expr.Env, error) { return e.rowEnv(in.Rows[i]) },
		by, having, projs, func(rep int, tuple object.Value) {
			nr := algebra.Row{Vars: map[string]algebra.Bound{}}
			for k, v := range in.Rows[rep].Vars {
				nr.Vars[k] = v
			}
			nr.Vars[ResultVar] = algebra.Bound{Val: tuple}
			out.Rows = append(out.Rows, nr)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// groupRows is group over a streaming input's drained rows: keys and
// aggregates are read through the rows' slots, and each output row, packed
// to outSlots, is its representative input row with the tuple in the
// ResultVar slot.
func (e *Executor) groupRows(in *compiled, outSlots []int, rows *packed, by []sql.PathRef, having expr.Expr, projs []sql.ProjItem) (*packed, error) {
	at := make(map[string]int, len(rows.slots)) // variable → position in a packed row
	for k, s := range rows.slots {
		at[in.lay.Names[s]] = k
	}
	re := e.Alg.NewSlotEvaluator(at)
	out := newPacked(outSlots)
	res, _ := in.lay.Slot(ResultVar)
	res = out.at(res)
	err := e.groupCore(rows.Len(), func(i int) (*expr.Env, error) { return re.SlotEnv(rows.Row(i)) },
		by, having, projs, func(rep int, tuple object.Value) {
			row, src := out.add(), rows.Row(rep)
			for k, s := range rows.slots {
				row[out.at(s)] = src[k]
			}
			row[res] = algebra.Bound{Val: tuple}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// groupCore buckets n input rows on the GROUP BY keys in first-seen order,
// aggregates each bucket, and hands emit each bucket's first row and its
// tuple when HAVING holds. bind binds input row i; the environment it
// returns is used before the next call.
func (e *Executor) groupCore(n int, bind func(i int) (*expr.Env, error), by []sql.PathRef, having expr.Expr,
	projs []sql.ProjItem, emit func(rep int, tuple object.Value)) error {
	names := make([]string, len(projs))
	for i, it := range projs {
		names[i] = outName(it, i)
	}
	type bucket struct {
		rep  int
		aggs []*aggState
	}
	order := []string{}
	buckets := map[string]*bucket{}
	for i := 0; i < n; i++ {
		env, err := bind(i)
		if err != nil {
			return err
		}
		keyParts := make([]string, len(by))
		for k, ref := range by {
			v, err := refExpr(ref).Eval(env)
			if err != nil {
				return err
			}
			keyParts[k] = v.String()
		}
		key := strings.Join(keyParts, "\x00")
		b, ok := buckets[key]
		if !ok {
			b = &bucket{rep: i, aggs: make([]*aggState, len(projs))}
			for k, it := range projs {
				b.aggs[k] = &aggState{kind: it.Agg}
			}
			buckets[key] = b
			order = append(order, key)
		}
		for k, it := range projs {
			if it.Agg == sql.AggNone {
				continue
			}
			if it.Star {
				b.aggs[k].count++
				continue
			}
			v, err := it.Expr.Eval(env)
			if err != nil {
				return err
			}
			b.aggs[k].add(v)
		}
	}

	for _, key := range order {
		b := buckets[key]
		env, err := bind(b.rep)
		if err != nil {
			return err
		}
		fields := make([]object.Value, len(projs))
		for i, it := range projs {
			if it.Agg == sql.AggNone {
				v, err := it.Expr.Eval(env)
				if err != nil {
					return err
				}
				fields[i] = v
			} else {
				fields[i] = b.aggs[i].result()
			}
		}
		if having != nil {
			ok, err := expr.EvalBool(having, e.havingEnv(env, names, fields))
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		emit(b.rep, object.NewTuple(names, fields))
	}
	return nil
}

// havingEnv is HAVING's environment for one group: the representative
// row's variables, then the aggregate aliases as variables over them.
func (e *Executor) havingEnv(env *expr.Env, names []string, fields []object.Value) *expr.Env {
	henv := &expr.Env{
		Vars:    map[string]object.Value{},
		Resolve: e.Alg.Cat.Resolver(),
		Invoke:  e.Alg.Invoke,
	}
	for k, v := range env.Vars {
		henv.Vars[k] = v
	}
	for k, s := range env.Slots {
		if b := env.Row[s]; !b.Unbound() {
			henv.Vars[k] = b.Val
		}
	}
	for i, n := range names {
		henv.Vars[n] = fields[i]
	}
	return henv
}

func refExpr(ref sql.PathRef) expr.Expr {
	return expr.Path(ref.Var, ref.Path...)
}

// sortRows orders rows by the ORDER BY keys: a key resolves against the
// row's range-variable bindings first, then against the projected tuple's
// fields (aliases).
func (e *Executor) sortRows(in *algebra.Collection, keys []sql.OrderItem) (*algebra.Collection, error) {
	out := &algebra.Collection{Kind: in.Kind, Name: in.Name, Class: in.Class}
	out.Rows = append([]algebra.Row(nil), in.Rows...)
	keyVals := make([][]object.Value, len(out.Rows))
	for i, row := range out.Rows {
		env, err := e.rowEnv(row)
		if err != nil {
			return nil, err
		}
		vals := make([]object.Value, len(keys))
		for j, k := range keys {
			if _, bound := row.Vars[k.Ref.Var]; bound {
				v, err := refExpr(k.Ref).Eval(env)
				if err != nil {
					return nil, err
				}
				vals[j] = v
				continue
			}
			// Alias into the projected tuple.
			if res, ok := row.Vars[ResultVar]; ok {
				if f, found := res.Val.Field(k.Ref.Var); found {
					cur := f
					for _, attr := range k.Ref.Path {
						if cur.Kind == object.KindTuple {
							cur, _ = cur.Field(attr)
						}
					}
					vals[j] = cur
					continue
				}
			}
			vals[j] = object.Null
		}
		keyVals[i] = vals
	}
	idx := make([]int, len(out.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		for j, k := range keys {
			cmp, ok := object.Compare(keyVals[idx[x]][j], keyVals[idx[y]][j])
			if !ok {
				sx, sy := keyVals[idx[x]][j].String(), keyVals[idx[y]][j].String()
				if sx == sy {
					continue
				}
				cmp = strings.Compare(sx, sy)
			}
			if cmp == 0 {
				continue
			}
			if k.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	sorted := make([]algebra.Row, len(out.Rows))
	for i, j := range idx {
		sorted[i] = out.Rows[j]
	}
	out.Rows = sorted
	return out, nil
}

// crossProduct merges every row pair.
func crossProduct(a, b *algebra.Collection) *algebra.Collection {
	out := &algebra.Collection{Kind: algebra.ExtentKind, Name: b.Name, Class: b.Class}
	for _, ra := range a.Rows {
		for _, rb := range b.Rows {
			nr := algebra.Row{Vars: map[string]algebra.Bound{}}
			for k, v := range ra.Vars {
				nr.Vars[k] = v
			}
			for k, v := range rb.Vars {
				nr.Vars[k] = v
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// dedupByResult removes rows whose projected tuples are byte-identical.
func dedupByResult(in *algebra.Collection) *algebra.Collection {
	out := &algebra.Collection{Kind: in.Kind, Name: in.Name, Class: in.Class}
	seen := map[string]bool{}
	for _, row := range in.Rows {
		key := ""
		if b, ok := row.Vars[ResultVar]; ok {
			key = string(object.Marshal(b.Val))
		} else {
			key = fmt.Sprintf("%v", row.Vars)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Result is a tabular view of an executed query.
type Result struct {
	Columns []string
	Rows    [][]object.Value
	// OIDs carries, when the projection was a bare range variable, the
	// object identifier of each row's object (for cursor updates).
	OIDs []storage.OID
}

// Extract converts the final collection into a Result: projected tuples if
// present, otherwise the distinguished variable's objects.
func Extract(c *algebra.Collection) *Result {
	res := &Result{}
	for _, row := range c.Rows {
		r, hasR := row.Vars[ResultVar]
		pb, hasP := row.Vars[c.Name]
		res.add(r, hasR, pb, hasP, c.Name)
	}
	return res
}

// add appends one row to the result: the projected tuple when the row has
// one (r), otherwise the distinguished variable name's object (pb).
func (res *Result) add(r algebra.Bound, hasR bool, pb algebra.Bound, hasP bool, name string) {
	if hasR {
		if len(res.Columns) == 0 {
			res.Columns = append(res.Columns, r.Val.Names...)
		}
		res.Rows = append(res.Rows, append([]object.Value(nil), r.Val.Fields...))
		// A single-column projection of a bare variable keeps its OID.
		if len(r.Val.Fields) == 1 && hasP && r.Val.Fields[0].Kind == object.KindTuple {
			res.OIDs = append(res.OIDs, pb.OID)
		} else {
			res.OIDs = append(res.OIDs, storage.NilOID)
		}
		return
	}
	if len(res.Columns) == 0 {
		res.Columns = []string{name}
	}
	res.Rows = append(res.Rows, []object.Value{pb.Val})
	res.OIDs = append(res.OIDs, pb.OID)
}

// String renders the result as a simple table.
func (r *Result) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Columns, " | "))
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteByte('\n')
	}
	return sb.String()
}
