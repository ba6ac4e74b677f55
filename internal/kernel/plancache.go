package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mood/internal/object"
	"mood/internal/optimizer"
	"mood/internal/sql"
)

// planCache maps normalized statement shapes (literals replaced by '?') to
// optimized access plans, so re-executing a statement that differs only in
// its constants skips parse and optimize entirely: the hot path is a map
// lookup plus a bind pass that clones the cached plan with the fresh values.
//
// Invalidation is by epoch: DDL, index/BJI builds and RefreshStats bump it,
// and lookups discard entries stamped with an older epoch. A plan optimized
// concurrently with a bump is likewise discarded at store time, so a cached
// plan never refers to a dropped class or index. Data mutations do NOT bump
// the epoch — cached plans are generic plans carrying their first binding's
// cost estimates (see Options.PlanCache).
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	epoch   uint64 // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

type planEntry struct {
	plan    optimizer.Plan
	explain *optimizer.Explain
	nparams int
	epoch   uint64
}

func newPlanCache() *planCache {
	return &planCache{entries: map[string]*planEntry{}}
}

// lookup returns the entry cached for shape (nil on miss) and the current
// epoch, which a subsequent store must echo back. A hit requires the
// parameter count to match — same shape text with a different literal split
// cannot share a plan. Hit/miss counters are the callers' job: only
// cacheable SELECTs should count, and lookup cannot tell.
func (pc *planCache) lookup(shape string, nparams int) (*planEntry, uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ent := pc.entries[shape]
	if ent != nil && (ent.epoch != pc.epoch || ent.nparams != nparams) {
		delete(pc.entries, shape)
		ent = nil
	}
	return ent, pc.epoch
}

// store caches a plan optimized under epoch; it is discarded if the catalog
// changed while the optimizer ran.
func (pc *planCache) store(shape string, plan optimizer.Plan, explain *optimizer.Explain, nparams int, epoch uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if epoch != pc.epoch {
		return
	}
	pc.entries[shape] = &planEntry{plan: plan, explain: explain, nparams: nparams, epoch: epoch}
}

// invalidate drops every cached plan by advancing the epoch.
func (pc *planCache) invalidate() {
	pc.mu.Lock()
	pc.epoch++
	pc.entries = map[string]*planEntry{}
	pc.mu.Unlock()
}

// Stats returns the lifetime hit/miss counters.
func (pc *planCache) Stats() (hits, misses int64) {
	return pc.hits.Load(), pc.misses.Load()
}

// invalidatePlans bumps the plan-cache epoch (no-op when the cache is off).
func (db *DB) invalidatePlans() {
	if db.plans != nil {
		db.plans.invalidate()
	}
}

// PlanCacheStats returns the plan cache's lifetime hit/miss counters (zeros
// when the cache is off).
func (db *DB) PlanCacheStats() (hits, misses int64) {
	if db.plans == nil {
		return 0, 0
	}
	return db.plans.Stats()
}

// executeCached is Execute's plan-cache fast path. The bool reports whether
// the statement was handled here; false sends the caller to the plain parse
// path (shapes that cannot be parameterized, or inputs whose errors should
// be reported by the ordinary parser).
func (db *DB) executeCached(statement string) (*Result, bool, error) {
	shape, params, err := sql.Shape(statement)
	if err != nil {
		return nil, false, nil
	}
	if ent, _ := db.plans.lookup(shape, len(params)); ent != nil {
		db.plans.hits.Add(1)
		plan := optimizer.Bind(ent.plan, params)
		db.lastMu.Lock()
		db.LastPlan, db.LastExplain = plan, ent.explain
		db.lastMu.Unlock()
		res, err := db.execute(plan)
		return res, true, err
	}
	// Miss: parse with literals tagged as parameters so the optimized plan
	// is re-bindable, cache it, then run it on this statement's values.
	stmt, shape, params, err := sql.ParseShaped(statement)
	if err != nil {
		if sql.IsShapeMismatch(err) {
			return nil, false, nil
		}
		return nil, true, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		// Only SELECT plans are cacheable; run the statement as parsed
		// (Const.Param tags are inert outside the optimizer).
		res, err := db.ExecuteStmt(stmt)
		return res, true, err
	}
	db.plans.misses.Add(1)
	_, epoch := db.plans.lookup(shape, len(params)) // re-read epoch for the store
	plan, err := db.optimize(sel)
	if err != nil {
		return nil, true, err
	}
	db.lastMu.Lock()
	explain := db.LastExplain
	db.lastMu.Unlock()
	db.plans.store(shape, plan, explain, len(params), epoch)
	res, err := db.Exec.ExecuteResult(plan)
	return res, true, err
}

// Prepared is a statement compiled once and executable many times with fresh
// constants. Query's warm path performs no lexing, parsing or optimization —
// only a cache lookup and a plan bind.
type Prepared struct {
	db      *DB
	src     string
	shape   string
	nparams int
}

// Prepare parses and optimizes a SELECT once, caches the plan under its
// normalized shape, and returns a handle whose Query re-binds the plan to
// fresh parameter values. Requires Options.PlanCache.
func (db *DB) Prepare(statement string) (*Prepared, error) {
	if db.plans == nil {
		return nil, fmt.Errorf("kernel: Prepare requires Options.PlanCache")
	}
	stmt, shape, params, err := sql.ParseShaped(statement)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("kernel: only SELECT statements can be prepared, got %T", stmt)
	}
	db.plans.misses.Add(1)
	_, epoch := db.plans.lookup(shape, len(params))
	plan, err := db.optimize(sel)
	if err != nil {
		return nil, err
	}
	db.lastMu.Lock()
	explain := db.LastExplain
	db.lastMu.Unlock()
	db.plans.store(shape, plan, explain, len(params), epoch)
	return &Prepared{db: db, src: statement, shape: shape, nparams: len(params)}, nil
}

// Query executes the prepared statement with params substituted for the
// original literals, in their order of appearance. If DDL invalidated the
// cached plan since Prepare, the statement is transparently re-prepared.
func (p *Prepared) Query(params ...object.Value) (*Result, error) {
	if len(params) != p.nparams {
		return nil, fmt.Errorf("kernel: prepared statement wants %d parameters, got %d", p.nparams, len(params))
	}
	ent, _ := p.db.plans.lookup(p.shape, p.nparams)
	if ent == nil {
		np, err := p.db.Prepare(p.src)
		if err != nil {
			return nil, err
		}
		*p = *np
		ent, _ = p.db.plans.lookup(p.shape, p.nparams)
		if ent == nil {
			return nil, fmt.Errorf("kernel: prepared plan evicted during re-prepare")
		}
	} else {
		p.db.plans.hits.Add(1)
	}
	plan := optimizer.Bind(ent.plan, params)
	return p.db.Exec.ExecuteResult(plan)
}
