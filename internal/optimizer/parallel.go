package optimizer

import (
	"fmt"
	"strings"

	"mood/internal/cost"
)

// DefaultParallelMinPages is the cost-model gate for intra-query
// parallelism: an operator is only exchanged across workers when its
// estimated page footprint reaches this many pages. Below it, the fixed
// cost of spinning up workers outweighs the latency the fan-out can hide.
const DefaultParallelMinPages = 16.0

// ExchangePlan fans its input out across worker goroutines and merges the
// worker streams back into one ordered row stream (the Volcano exchange
// operator, morsel-driven). The executor recognizes the exchangeable input
// shapes — extent scans with an optional fused selection, index selections,
// and hash-partition joins (probe side parallel, build side shared) — and
// falls back to serial execution of the input for anything else, so an
// ExchangePlan never changes results, only scheduling.
type ExchangePlan struct {
	Input   Plan
	Workers int
	card    float64
}

// Card returns the estimated output cardinality.
func (p *ExchangePlan) Card() float64 { return p.card }

func (p *ExchangePlan) render(sb *strings.Builder, indent string) {
	fmt.Fprintf(sb, "%sEXCHANGE(workers=%d,\n", indent, p.Workers)
	p.Input.render(sb, indent+"  ")
	sb.WriteString(")")
}

// Parallelize rewrites a plan for degree-of-parallelism workers: every
// exchangeable subtree whose estimated page footprint is at least minPages
// (<= 0 means no threshold) is wrapped in an ExchangePlan. The input plan is
// not mutated; untouched subtrees are shared between the old and new trees.
// Workers <= 1 returns the plan unchanged — serial plans stay byte-identical.
func Parallelize(p Plan, workers int, minPages float64, st *cost.Stats) Plan {
	if workers <= 1 || p == nil {
		return p
	}
	return parallelize(p, workers, minPages, st)
}

func parallelize(p Plan, workers int, minPages float64, st *cost.Stats) Plan {
	wrap := func(in Plan) Plan {
		if minPages > 0 && estPages(in, st) < minPages {
			return in
		}
		return &ExchangePlan{Input: in, Workers: workers, card: in.Card()}
	}
	switch n := p.(type) {
	case *BindPlan:
		return wrap(n)
	case *IndSelPlan:
		return wrap(n)
	case *SelectPlan:
		if _, overScan := n.Input.(*BindPlan); overScan {
			// Fuse the filter into the parallel scan: workers evaluate the
			// predicate on the rows of their own morsels.
			return wrap(n)
		}
		if in := parallelize(n.Input, workers, minPages, st); in != n.Input {
			return &SelectPlan{Input: in, Pred: n.Pred, card: n.card}
		}
	case *IntersectPlan:
		// Intersection consumes its IndSel inputs as OID sets without
		// fetching objects; exchanging them would force the fetches the
		// lazy path exists to avoid. Leave the whole subtree serial.
	case *JoinPlan:
		left := n.Left
		if _, bare := n.Left.(*BindPlan); !bare || n.Method != cost.BinaryJoinIndex {
			// A join-index join absorbs a bare-bind left side the same way
			// (its sources are fetched, the extent never scanned).
			left = parallelize(n.Left, workers, minPages, st)
		}
		right := n.Right
		if n.Method != cost.FusionJoin {
			// A fusion join absorbs its bind-shaped right child into the
			// operator; an exchange there would break the shape (and the
			// right extent is never scanned anyway).
			right = parallelize(n.Right, workers, minPages, st)
		}
		out := n
		if left != n.Left || right != n.Right {
			out = &JoinPlan{Left: left, Right: right, Method: n.Method,
				LeftVar: n.LeftVar, Attribute: n.Attribute, RightVar: n.RightVar,
				Index: n.Index, card: n.card}
		}
		if n.Method == cost.HashPartition {
			return wrap(out)
		}
		return out
	case *CrossPlan:
		left := parallelize(n.Left, workers, minPages, st)
		right := parallelize(n.Right, workers, minPages, st)
		if left != n.Left || right != n.Right {
			return &CrossPlan{Left: left, Right: right, card: n.card}
		}
	case *UnionPlan:
		changed := false
		inputs := make([]Plan, len(n.Inputs))
		for i, in := range n.Inputs {
			inputs[i] = parallelize(in, workers, minPages, st)
			changed = changed || inputs[i] != in
		}
		if changed {
			return &UnionPlan{Inputs: inputs, Vars: n.Vars, card: n.card}
		}
	case *ProjectPlan:
		if in := parallelize(n.Input, workers, minPages, st); in != n.Input {
			return &ProjectPlan{Input: in, Items: n.Items, card: n.card}
		}
	case *GroupPlan:
		if in := parallelize(n.Input, workers, minPages, st); in != n.Input {
			return &GroupPlan{Input: in, By: n.By, Having: n.Having, Projs: n.Projs, card: n.card}
		}
	case *SortPlan:
		if in := parallelize(n.Input, workers, minPages, st); in != n.Input {
			return &SortPlan{Input: in, Keys: n.Keys, card: n.card}
		}
	case *DupElimPlan:
		if in := parallelize(n.Input, workers, minPages, st); in != n.Input {
			return &DupElimPlan{Input: in, card: n.card}
		}
	}
	return p
}

// estPages estimates the page footprint an exchange over p would spread
// across workers: extent pages for scans, one random page fetch per
// qualifying OID for index selections, one probe fetch per left row for
// hash joins — the quantities the Section 5/6 formulas price.
func estPages(p Plan, st *cost.Stats) float64 {
	switch n := p.(type) {
	case *BindPlan:
		return classPages(st, n.Class)
	case *SelectPlan:
		return estPages(n.Input, st)
	case *IndSelPlan:
		return n.card
	case *JoinPlan:
		return n.Left.Card()
	case *ExchangePlan:
		return estPages(n.Input, st)
	}
	return 0
}

func classPages(st *cost.Stats, class string) float64 {
	if st == nil {
		return 0
	}
	if cs, err := st.Class(class); err == nil {
		return float64(cs.NbPages)
	}
	return 0
}
