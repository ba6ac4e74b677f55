package optimizer

import (
	"fmt"
	"strings"

	"mood/internal/algebra"
	"mood/internal/catalog"
	"mood/internal/cost"
	"mood/internal/expr"
	"mood/internal/sql"
)

// Plan is a physical access plan node. Rendering follows the paper's
// notation, e.g. Example 8.1's
//
//	JOIN( BIND(Vehicle, v),
//	      SELECT(BIND(Company, c), c.name = 'BMW'),
//	      HASH_PARTITION, v.company = c.self )
type Plan interface {
	// Card is the optimizer's cardinality estimate for the node's output.
	Card() float64
	render(sb *strings.Builder, indent string)
}

// Render pretty-prints a plan.
func Render(p Plan) string {
	var sb strings.Builder
	p.render(&sb, "")
	return sb.String()
}

// BindPlan scans a class extent: BIND(Class, var). Minus lists excluded
// subclasses; Every includes the IS-A closure.
type BindPlan struct {
	Class string
	Var   string
	Minus []string
	Every bool
	card  float64
}

// Card returns the estimated output cardinality.
func (p *BindPlan) Card() float64 { return p.card }

func (p *BindPlan) render(sb *strings.Builder, indent string) {
	name := p.Class
	for _, m := range p.Minus {
		name += " - " + m
	}
	fmt.Fprintf(sb, "%sBIND(%s, %s)", indent, name, p.Var)
}

// SelectPlan filters its input: SELECT(input, predicate).
type SelectPlan struct {
	Input Plan
	Pred  expr.Expr
	card  float64
}

// Card returns the estimated output cardinality.
func (p *SelectPlan) Card() float64 { return p.card }

func (p *SelectPlan) render(sb *strings.Builder, indent string) {
	fmt.Fprintf(sb, "%sSELECT(\n", indent)
	p.Input.render(sb, indent+"  ")
	fmt.Fprintf(sb, ",\n%s  %s)", indent, p.Pred)
}

// IndSelPlan is an index selection: INDSEL(Class, var, index, predicate).
// It yields a set of object identifiers (Section 3.2's IndSel).
type IndSelPlan struct {
	Class string
	Var   string
	// Every is the FROM clause's EVERY: the variable ranges over Class's
	// IS-A closure, not only its direct extent. An index holds its class's
	// whole closure, so the executor keeps only the candidates of the
	// classes the variable ranges over.
	Every bool
	Index *catalog.Index
	Pred  algebra.SimplePredicate
	// ConstParam/Const2Param are the plan-cache parameter indices of
	// Pred.Constant/Pred.Constant2 (0 = plain literal). Bind substitutes
	// fresh values through them when a cached plan is reused.
	ConstParam  int
	Const2Param int
	card        float64
}

// Card returns the estimated output cardinality.
func (p *IndSelPlan) Card() float64 { return p.card }

func (p *IndSelPlan) render(sb *strings.Builder, indent string) {
	fmt.Fprintf(sb, "%sINDSEL(%s, %s, %s[%s], %s)", indent, p.Class, p.Var,
		p.Index.Name, p.Index.Kind, renderSimple(p.Var, p.Pred))
}

func renderSimple(v string, p algebra.SimplePredicate) string {
	if p.Between {
		return fmt.Sprintf("%s.%s BETWEEN %s AND %s", v, p.Attribute, p.Constant, p.Constant2)
	}
	return fmt.Sprintf("%s.%s %s %s", v, p.Attribute, p.Op, p.Constant)
}

// IntersectPlan intersects OID sets from several index selections (§8.1's
// multi-index case) and fetches the surviving objects.
type IntersectPlan struct {
	Inputs []Plan
	card   float64
}

// Card returns the estimated output cardinality.
func (p *IntersectPlan) Card() float64 { return p.card }

func (p *IntersectPlan) render(sb *strings.Builder, indent string) {
	fmt.Fprintf(sb, "%sINTERSECT(\n", indent)
	for i, in := range p.Inputs {
		in.render(sb, indent+"  ")
		if i < len(p.Inputs)-1 {
			sb.WriteString(",\n")
		}
	}
	sb.WriteString(")")
}

// JoinPlan is an implicit join: JOIN(left, right, METHOD, l.attr = r.self).
type JoinPlan struct {
	Left, Right Plan
	Method      cost.JoinMethod
	LeftVar     string
	Attribute   string
	RightVar    string
	Index       string // binary join index name, when Method is BJI
	card        float64
}

// Card returns the estimated output cardinality.
func (p *JoinPlan) Card() float64 { return p.card }

func (p *JoinPlan) render(sb *strings.Builder, indent string) {
	fmt.Fprintf(sb, "%sJOIN(\n", indent)
	p.Left.render(sb, indent+"  ")
	sb.WriteString(",\n")
	p.Right.render(sb, indent+"  ")
	fmt.Fprintf(sb, ",\n%s  %s, %s.%s = %s.self)", indent, p.Method, p.LeftVar, p.Attribute, p.RightVar)
}

// ProjectPlan projects attributes: PROJECT(input, items).
type ProjectPlan struct {
	Input Plan
	Items []sql.ProjItem
	card  float64
}

// Card returns the estimated output cardinality.
func (p *ProjectPlan) Card() float64 { return p.card }

func (p *ProjectPlan) render(sb *strings.Builder, indent string) {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
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
	fmt.Fprintf(sb, "%sPROJECT(\n", indent)
	p.Input.render(sb, indent+"  ")
	fmt.Fprintf(sb, ",\n%s  [%s])", indent, strings.Join(parts, ", "))
}

// GroupPlan groups and aggregates: GROUP(input, by, having, projs).
type GroupPlan struct {
	Input  Plan
	By     []sql.PathRef
	Having expr.Expr
	Projs  []sql.ProjItem
	card   float64
}

// Card returns the estimated output cardinality.
func (p *GroupPlan) Card() float64 { return p.card }

func (p *GroupPlan) render(sb *strings.Builder, indent string) {
	keys := make([]string, len(p.By))
	for i, b := range p.By {
		keys[i] = b.String()
	}
	fmt.Fprintf(sb, "%sGROUP(\n", indent)
	p.Input.render(sb, indent+"  ")
	fmt.Fprintf(sb, ",\n%s  BY [%s]", indent, strings.Join(keys, ", "))
	if p.Having != nil {
		fmt.Fprintf(sb, " HAVING %s", p.Having)
	}
	sb.WriteString(")")
}

// SortPlan orders rows: SORT(input, keys).
type SortPlan struct {
	Input Plan
	Keys  []sql.OrderItem
	card  float64
}

// Card returns the estimated output cardinality.
func (p *SortPlan) Card() float64 { return p.card }

func (p *SortPlan) render(sb *strings.Builder, indent string) {
	keys := make([]string, len(p.Keys))
	for i, k := range p.Keys {
		keys[i] = k.Ref.String()
		if k.Desc {
			keys[i] += " DESC"
		}
	}
	fmt.Fprintf(sb, "%sSORT(\n", indent)
	p.Input.render(sb, indent+"  ")
	fmt.Fprintf(sb, ",\n%s  [%s])", indent, strings.Join(keys, ", "))
}

// UnionPlan unions the sub-access plans of the DNF's AND-terms (Section 7:
// "all the subaccess plans generated are combined using the UNION
// operation"). Duplicate elimination keys on Vars — the query's FROM-clause
// range variables — because different AND-terms introduce different
// intermediate variables for their path expansions.
type UnionPlan struct {
	Inputs []Plan
	Vars   []string
	card   float64
}

// Card returns the estimated output cardinality.
func (p *UnionPlan) Card() float64 { return p.card }

func (p *UnionPlan) render(sb *strings.Builder, indent string) {
	fmt.Fprintf(sb, "%sUNION(\n", indent)
	for i, in := range p.Inputs {
		in.render(sb, indent+"  ")
		if i < len(p.Inputs)-1 {
			sb.WriteString(",\n")
		}
	}
	sb.WriteString(")")
}

// DupElimPlan eliminates duplicates (SELECT DISTINCT).
type DupElimPlan struct {
	Input Plan
	card  float64
}

// Card returns the estimated output cardinality.
func (p *DupElimPlan) Card() float64 { return p.card }

func (p *DupElimPlan) render(sb *strings.Builder, indent string) {
	fmt.Fprintf(sb, "%sDUPELIM(\n", indent)
	p.Input.render(sb, indent+"  ")
	sb.WriteString(")")
}

// CrossPlan is the unconstrained product of two variable groups (no join
// predicate connects them). It is rendered explicitly so surprising
// Cartesian products are visible in plans.
type CrossPlan struct {
	Left, Right Plan
	card        float64
}

// Card returns the estimated output cardinality.
func (p *CrossPlan) Card() float64 { return p.card }

func (p *CrossPlan) render(sb *strings.Builder, indent string) {
	fmt.Fprintf(sb, "%sCROSS(\n", indent)
	p.Left.render(sb, indent+"  ")
	sb.WriteString(",\n")
	p.Right.render(sb, indent+"  ")
	sb.WriteString(")")
}
