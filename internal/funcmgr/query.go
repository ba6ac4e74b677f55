package funcmgr

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mood/internal/expr"
)

// QueryRegistry extends the Function Manager to query fragments: predicates
// and projection expressions compiled by expr.Compile are registered under
// their expression signature (the rendered expression text, the analogue of
// the paper's class-plus-parameter-list signature) and resolved at execution
// time. The lifecycle mirrors the member-function registry — compile once,
// late-bind by signature, count a "load" on first resolution — so EXPLAIN
// and the experiment harness can report compilation reuse the same way
// Manager.Stats reports it for methods.
//
// The registry is safe for concurrent resolution (parallel exchange workers
// compile/resolve through the same instance); the returned closures
// themselves are read-only over their captured expression nodes and shared
// freely across goroutines.
//
// Signatures include literal values, so every distinct constant compiles
// a fragment of its own. The registry keeps two generations to stay
// bounded: once the current one holds queryGeneration fragments it
// becomes the old one and the previous old one is dropped, and a fragment
// found in the old generation moves back into the current one. At most
// 2·queryGeneration fragments are kept; a dropped one compiles again on
// its next use.
type QueryRegistry struct {
	mu  sync.Mutex
	fns map[string]*queryFn // the current generation
	old map[string]*queryFn // the previous one

	compilations int64 // distinct fragments lowered
	resolutions  int64 // signature lookups served
	fallbacks    int64 // fragments that did not fully lower
}

// queryGeneration is the number of fragments one generation of a
// QueryRegistry holds.
const queryGeneration = 1024

type queryFn struct {
	boolFn expr.BoolFn
	fn     expr.Fn
	pred   expr.PredFn // non-nil when the self-mode specialization lowered
	attrs  []string    // the attributes pred reads (expr.SelfAttrs); nil when it may read all
	full   bool        // every node lowered (no interpreter subtrees)
	loaded bool        // "loaded" on first resolution, as for shared objects
}

// NewQueryRegistry creates an empty registry.
func NewQueryRegistry() *QueryRegistry {
	return &QueryRegistry{fns: make(map[string]*queryFn)}
}

// resolve returns the compiled entry for the signature, lowering and
// registering it on first use.
func (r *QueryRegistry) resolve(key, varName string, e expr.Expr, slots map[string]int) *queryFn {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.fns[key]
	if !ok {
		if q, ok = r.old[key]; ok {
			delete(r.old, key)
		} else {
			q = &queryFn{}
			q.boolFn, q.full = expr.CompileBool(e, slots)
			q.fn, _ = expr.Compile(e, slots)
			if varName != "" {
				if q.pred, _ = expr.CompilePredicate(e, varName); q.pred != nil {
					q.attrs, _ = expr.SelfAttrs(e, varName)
				}
			}
			r.compilations++
			if !q.full {
				r.fallbacks++
			}
		}
		if len(r.fns) >= queryGeneration {
			r.old, r.fns = r.fns, make(map[string]*queryFn)
		}
		r.fns[key] = q
	}
	r.resolutions++
	if !q.loaded {
		q.loaded = true
	}
	return q
}

// Predicate resolves the self-mode compiled form of a single-variable
// predicate over varName. pred is nil when the predicate does not lower to
// self mode (multi-variable, method call, or unknown node); callers fall
// back to BoolFn or the interpreter. attrs names the attributes of varName
// pred reads (expr.SelfAttrs): an extent scan decodes only those into a
// partial tuple, runs pred on it, and decodes in full only the objects that
// pass. attrs is nil when pred is, when pred may read the whole object, or
// when it reads no attribute at all; the scan then decodes every object.
func (r *QueryRegistry) Predicate(varName string, e expr.Expr) (pred expr.PredFn, attrs []string) {
	q := r.resolve("pred:"+varName+"\x00"+expr.Signature(e), varName, e, nil)
	return q.pred, q.attrs
}

// BoolFn resolves the environment-mode compiled predicate, its variables
// resolved to the row slots slots names (see expr.Compile). The closure is
// always valid; full reports whether every node lowered (false means some
// subtree interprets).
func (r *QueryRegistry) BoolFn(e expr.Expr, slots map[string]int) (fn expr.BoolFn, full bool) {
	q := r.resolve("bool:"+slotsKey(slots)+"\x00"+expr.Signature(e), "", e, slots)
	return q.boolFn, q.full
}

// Fn resolves the environment-mode compiled expression (projections), as
// BoolFn.
func (r *QueryRegistry) Fn(e expr.Expr, slots map[string]int) (fn expr.Fn, full bool) {
	q := r.resolve("expr:"+slotsKey(slots)+"\x00"+expr.Signature(e), "", e, slots)
	return q.fn, q.full
}

// slotsKey renders a slot layout for the signature: a closure compiled
// against one layout reads the wrong slots under another.
func slotsKey(slots map[string]int) string {
	names := make([]string, 0, len(slots))
	for name := range slots {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s=%d;", name, slots[name])
	}
	return sb.String()
}

// QueryStats returns (compilations, resolutions, fallbacks): distinct
// fragments lowered, signature lookups served, and fragments that kept an
// interpreted subtree.
func (r *QueryRegistry) QueryStats() (compilations, resolutions, fallbacks int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.compilations, r.resolutions, r.fallbacks
}
