package algebra

import (
	"fmt"
	"sort"
	"strings"

	"mood/internal/object"
	"mood/internal/storage"
)

// ProjItem is one entry of a projection list: a path rooted at a range
// variable, optionally renamed.
type ProjItem struct {
	Var  string
	Path []string // empty: the whole object
	As   string   // output field name; defaults to the last path component
}

// OutName returns the output field name.
func (p ProjItem) OutName() string {
	if p.As != "" {
		return p.As
	}
	if len(p.Path) > 0 {
		return p.Path[len(p.Path)-1]
	}
	return p.Var
}

func (p ProjItem) String() string {
	s := p.Var
	if len(p.Path) > 0 {
		s += "." + strings.Join(p.Path, ".")
	}
	return s
}

// followPath walks a path from a value, dereferencing references.
func (a *Algebra) followPath(v object.Value, path []string) (object.Value, error) {
	cur := v
	for _, attr := range path {
		if cur.Kind == object.KindReference {
			if cur.Ref.IsNil() {
				return object.Null, nil
			}
			var err error
			if cur, _, err = a.Cat.GetObject(cur.Ref); err != nil {
				return object.Null, err
			}
		}
		if cur.Kind != object.KindTuple {
			return object.Null, nil
		}
		f, ok := cur.Field(attr)
		if !ok {
			return object.Null, nil
		}
		cur = f
	}
	return cur, nil
}

// Project is the Project operator: "the result of the operator Project is
// the extent of the tuple type values projected onto attribute_list"; list
// and set arguments have their elements dereferenced first. Since MOOD
// allows dynamic schema changes, these anonymous tuples could be promoted
// to a class; here they form an anonymous extent.
func (a *Algebra) Project(arg *Collection, items []ProjItem) (*Collection, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("algebra: empty projection list")
	}
	out := &Collection{Kind: ExtentKind, Name: arg.Name, Class: ""}
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.OutName()
	}
	for i := range arg.Rows {
		row := arg.Rows[i]
		fields := make([]object.Value, len(items))
		for j, it := range items {
			b, ok := row.Vars[it.Var]
			if !ok {
				return nil, fmt.Errorf("algebra: projection variable %s unbound", it.Var)
			}
			if err := a.MaterializeBound(&b); err != nil {
				return nil, err
			}
			if len(it.Path) == 0 {
				fields[j] = b.Val
				continue
			}
			v, err := a.followPath(b.Val, it.Path)
			if err != nil {
				return nil, err
			}
			fields[j] = v
		}
		tup := object.NewTuple(names, fields)
		out.Rows = append(out.Rows, Row{Vars: map[string]Bound{arg.Name: {Val: tup}}})
	}
	return out, nil
}

// Partition divides the collection into groups of rows agreeing on the
// attribute list of the distinguished variable; the return value is the set
// of groups (partitions).
func (a *Algebra) Partition(arg *Collection, attrs []string) ([]*Collection, error) {
	groups := map[string]*Collection{}
	var order []string
	for i := range arg.Rows {
		row := arg.Rows[i]
		b := row.Vars[arg.Name]
		if err := a.MaterializeBound(&b); err != nil {
			return nil, err
		}
		row.Vars[arg.Name] = b
		keyParts := make([]string, len(attrs))
		for j, attr := range attrs {
			v, err := a.followPath(b.Val, []string{attr})
			if err != nil {
				return nil, err
			}
			keyParts[j] = v.String()
		}
		key := strings.Join(keyParts, "\x00")
		g, ok := groups[key]
		if !ok {
			g = &Collection{Kind: arg.Kind, Name: arg.Name, Class: arg.Class}
			groups[key] = g
			order = append(order, key)
		}
		g.Rows = append(g.Rows, row)
	}
	out := make([]*Collection, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return out, nil
}

// SortKey orders rows by one attribute path of a variable.
type SortKey struct {
	Var  string
	Path []string
	Desc bool
}

// Sort sorts the collection by the key list "without duplicate
// elimination", using heap sort with run merging — the paper's only
// supported sort method. Sets and lists are sorted by their dereferenced
// objects' attributes; the result keeps the argument's kind (sorted set,
// sorted list, or sorted extent).
func (a *Algebra) Sort(arg *Collection, keys []SortKey) (*Collection, error) {
	out := &Collection{Kind: arg.Kind, Name: arg.Name, Class: arg.Class}
	out.Rows = append([]Row(nil), arg.Rows...)
	// Precompute key values (dereferencing set/list OIDs as the paper
	// notes the sort operator must).
	keyVals := make([][]object.Value, len(out.Rows))
	for i := range out.Rows {
		vals := make([]object.Value, len(keys))
		for j, k := range keys {
			varName := k.Var
			if varName == "" {
				varName = arg.Name
			}
			b := out.Rows[i].Vars[varName]
			if err := a.MaterializeBound(&b); err != nil {
				return nil, err
			}
			v, err := a.followPath(b.Val, k.Path)
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
		keyVals[i] = vals
	}
	heapSortMerge(out.Rows, keyVals, keys)
	return out, nil
}

// valLess compares two key vectors under the key list's directions; nulls
// and incomparables order by their rendering, stably.
func valLess(keys []SortKey, a, b []object.Value) bool {
	for j := range keys {
		cmp, ok := object.Compare(a[j], b[j])
		if !ok {
			sx, sy := a[j].String(), b[j].String()
			if sx == sy {
				continue
			}
			cmp = strings.Compare(sx, sy)
		}
		if cmp == 0 {
			continue
		}
		if keys[j].Desc {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}

// heapSortMerge implements "heap sort with merging": the input is split
// into runs, each heap-sorted, and the runs merged — the external-sort
// shape the paper names, executed in memory.
func heapSortMerge(rows []Row, keyVals [][]object.Value, keys []SortKey) {
	n := len(rows)
	if n < 2 {
		return
	}
	less := func(i, j int) bool { return valLess(keys, keyVals[i], keyVals[j]) }
	swap := func(i, j int) {
		rows[i], rows[j] = rows[j], rows[i]
		keyVals[i], keyVals[j] = keyVals[j], keyVals[i]
	}
	const runSize = 1024
	// Heap-sort each run.
	for start := 0; start < n; start += runSize {
		end := start + runSize
		if end > n {
			end = n
		}
		heapSortRange(start, end, less, swap)
	}
	if n <= runSize {
		return
	}
	// Merge runs pairwise until one remains.
	for width := runSize; width < n; width *= 2 {
		for start := 0; start < n; start += 2 * width {
			mid := start + width
			end := start + 2*width
			if mid >= n {
				break
			}
			if end > n {
				end = n
			}
			mergeRange(rows, keyVals, start, mid, end, keys)
		}
	}
}

func heapSortRange(lo, hi int, less func(i, j int) bool, swap func(i, j int)) {
	n := hi - lo
	siftDown := func(root, size int) {
		for {
			child := 2*root + 1
			if child >= size {
				return
			}
			if child+1 < size && less(lo+child, lo+child+1) {
				child++
			}
			if !less(lo+root, lo+child) {
				return
			}
			swap(lo+root, lo+child)
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for i := n - 1; i > 0; i-- {
		swap(lo, lo+i)
		siftDown(0, i)
	}
}

func mergeRange(rows []Row, keyVals [][]object.Value, lo, mid, hi int, keys []SortKey) {
	tmpRows := make([]Row, hi-lo)
	tmpKeys := make([][]object.Value, hi-lo)
	copy(tmpRows, rows[lo:hi])
	copy(tmpKeys, keyVals[lo:hi])
	i, j, k := 0, mid-lo, lo
	for i < mid-lo && j < hi-lo {
		if valLess(keys, tmpKeys[j], tmpKeys[i]) {
			rows[k], keyVals[k] = tmpRows[j], tmpKeys[j]
			j++
		} else {
			rows[k], keyVals[k] = tmpRows[i], tmpKeys[i]
			i++
		}
		k++
	}
	for i < mid-lo {
		rows[k], keyVals[k] = tmpRows[i], tmpKeys[i]
		i++
		k++
	}
	for j < hi-lo {
		rows[k], keyVals[k] = tmpRows[j], tmpKeys[j]
		j++
		k++
	}
}

// DupElim eliminates duplicates per Table 3:
//
//	Set    — not applicable (sets are duplicate-free by construction);
//	List   — list of ordered distinct object identifiers;
//	Extent — extent of distinct objects by the deep equality check.
func (a *Algebra) DupElim(arg *Collection) (*Collection, error) {
	switch arg.Kind {
	case SetKind:
		return nil, fmt.Errorf("%w: DupElim on a Set", ErrNotApplicable)
	case ListKind:
		out := &Collection{Kind: ListKind, Name: arg.Name, Class: arg.Class}
		oids := arg.OIDs()
		sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
		var prev storage.OID
		for i, oid := range oids {
			if i > 0 && oid == prev {
				continue
			}
			prev = oid
			out.Rows = append(out.Rows, Row{Vars: map[string]Bound{arg.Name: {OID: oid}}})
		}
		return out, nil
	case ExtentKind, NamedObjKind:
		out := &Collection{Kind: arg.Kind, Name: arg.Name, Class: arg.Class}
		resolve := a.Cat.Resolver()
		var kept []object.Value
		for i := range arg.Rows {
			row := arg.Rows[i]
			b := row.Vars[arg.Name]
			if err := a.MaterializeBound(&b); err != nil {
				return nil, err
			}
			row.Vars[arg.Name] = b
			dup := false
			for _, k := range kept {
				eq, err := object.DeepEqual(k, b.Val, resolve)
				if err != nil {
					return nil, err
				}
				if eq {
					dup = true
					break
				}
			}
			if !dup {
				kept = append(kept, b.Val)
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: DupElim on %s", ErrNotApplicable, arg.Kind)
}
