package optimizer

import (
	"fmt"
	"strings"

	"mood/internal/algebra"
	"mood/internal/sql"
)

// Header describes the collection shape a plan node's rows would have if
// materialized: the MOOD-algebra kind, distinguished variable, and class of
// the seed executor's Collection headers. The executor computes it at
// compile time from the plan alone, so the streaming and materializing
// paths agree on result shape before any row is produced. (The executor
// owns the physical-operator contract itself — Open/NextBatch/Close in
// package exec; plans never depend on it.)
type Header struct {
	Kind  algebra.Kind
	Name  string
	Class string
}

// Children returns a plan node's direct inputs in execution order, so
// external walkers (EXPLAIN ANALYZE's annotated renderer) need no knowledge
// of the node structs.
func Children(p Plan) []Plan {
	switch n := p.(type) {
	case *SelectPlan:
		return []Plan{n.Input}
	case *IntersectPlan:
		return n.Inputs
	case *JoinPlan:
		return []Plan{n.Left, n.Right}
	case *CrossPlan:
		return []Plan{n.Left, n.Right}
	case *UnionPlan:
		return n.Inputs
	case *ProjectPlan:
		return []Plan{n.Input}
	case *GroupPlan:
		return []Plan{n.Input}
	case *SortPlan:
		return []Plan{n.Input}
	case *DupElimPlan:
		return []Plan{n.Input}
	case *ExchangePlan:
		return []Plan{n.Input}
	}
	return nil
}

// Describe renders a plan node as a single line (no children), the per-node
// label of EXPLAIN ANALYZE's annotated tree.
func Describe(p Plan) string {
	switch n := p.(type) {
	case *BindPlan:
		name := n.Class
		for _, m := range n.Minus {
			name += " - " + m
		}
		return fmt.Sprintf("BIND(%s, %s)", name, n.Var)
	case *IndSelPlan:
		return fmt.Sprintf("INDSEL(%s, %s, %s[%s], %s)", n.Class, n.Var,
			n.Index.Name, n.Index.Kind, renderSimple(n.Var, n.Pred))
	case *IntersectPlan:
		return "INTERSECT"
	case *SelectPlan:
		return fmt.Sprintf("SELECT(%s)", n.Pred)
	case *JoinPlan:
		return fmt.Sprintf("JOIN(%s, %s.%s = %s.self)", n.Method, n.LeftVar, n.Attribute, n.RightVar)
	case *CrossPlan:
		return "CROSS"
	case *UnionPlan:
		return "UNION"
	case *ProjectPlan:
		parts := make([]string, len(n.Items))
		for i, it := range n.Items {
			s := ""
			if it.Agg != sql.AggNone {
				inner := "*"
				if !it.Star && it.Expr != nil {
					inner = it.Expr.String()
				}
				s = fmt.Sprintf("%s(%s)", it.Agg, inner)
			} else if it.Expr != nil {
				s = it.Expr.String()
			}
			if it.As != "" {
				s += " AS " + it.As
			}
			parts[i] = s
		}
		return fmt.Sprintf("PROJECT([%s])", strings.Join(parts, ", "))
	case *GroupPlan:
		keys := make([]string, len(n.By))
		for i, b := range n.By {
			keys[i] = b.String()
		}
		s := fmt.Sprintf("GROUP(BY [%s]", strings.Join(keys, ", "))
		if n.Having != nil {
			s += fmt.Sprintf(" HAVING %s", n.Having)
		}
		return s + ")"
	case *SortPlan:
		keys := make([]string, len(n.Keys))
		for i, k := range n.Keys {
			keys[i] = k.Ref.String()
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		return fmt.Sprintf("SORT([%s])", strings.Join(keys, ", "))
	case *DupElimPlan:
		return "DUPELIM"
	case *ExchangePlan:
		return fmt.Sprintf("EXCHANGE(workers=%d)", n.Workers)
	}
	return fmt.Sprintf("%T", p)
}
