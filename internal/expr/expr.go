// Package expr implements the MOODSQL interpreter's run-time-typed
// expression evaluation (Section 2): "For interpretation of arithmetic and
// Boolean expressions, the types of operands are necessary at run time...
// The code ... mainly overloads addition, subtraction, multiplication,
// division and mode operation operators in the order (+, -, *, /, %) for
// arithmetic expressions. It evaluates AND, OR, NOT, and comparison
// operators for Boolean expressions. Type checking and conversion of
// results are performed at run-time."
//
// The OperandDataType behaviour is reproduced: Integer op Integer yields
// Integer (C++ integer division), widening to LongInteger or Float happens
// when either operand is wider, and results are cast to the destination
// type on assignment.
package expr

import (
	"errors"
	"fmt"
	"strings"

	"mood/internal/object"
	"mood/internal/storage"
)

// Errors surfaced by evaluation.
var (
	ErrType       = errors.New("expr: type error")
	ErrDivByZero  = errors.New("expr: division by zero")
	ErrUnbound    = errors.New("expr: unbound variable")
	ErrNullDeref  = errors.New("expr: dereference of null reference")
	ErrNoSuchAttr = errors.New("expr: no such attribute")
)

// Binding is one range variable's binding in a row vector: the bound
// object's identifier and, when materialized, its value. Set and List rows
// carry the identifier only. The zero Binding binds nothing: every real
// binding has an identifier or a value.
type Binding struct {
	OID storage.OID
	Val object.Value
}

// Unbound reports whether b is the zero Binding.
func (b *Binding) Unbound() bool { return b.OID.IsNil() && b.Val.IsNull() }

// Env supplies the bindings and services an expression needs: range-variable
// values, reference resolution (for path traversal), and method invocation
// (for parameterless-method predicates and method calls).
//
// Bindings come by name (Vars, OIDs) or as a row vector (Row, with Slots
// naming the slot each variable occupies). A closure compiled against a
// slot map (Compile) reads its variables' slots directly; the interpreter
// looks a name up in Vars first, then in Slots. An unbound slot (the zero
// Binding) reads as an unbound variable.
type Env struct {
	Vars    map[string]object.Value
	OIDs    map[string]storage.OID // the OID bound to each range variable, if any
	Row     []Binding
	Slots   map[string]int
	Resolve object.Resolver
	Invoke  func(self object.Value, selfOID storage.OID, method string, args []object.Value) (object.Value, error)
}

// slot returns the row binding of a variable, nil when it has none.
func (e *Env) slot(name string) *Binding {
	if i, ok := e.Slots[name]; ok && !e.Row[i].Unbound() {
		return &e.Row[i]
	}
	return nil
}

// Bind returns a copy of the environment with the variable bound.
func (e *Env) Bind(name string, v object.Value, oid storage.OID) *Env {
	out := &Env{
		Vars:    make(map[string]object.Value, len(e.Vars)+1),
		OIDs:    make(map[string]storage.OID, len(e.OIDs)+1),
		Resolve: e.Resolve,
		Invoke:  e.Invoke,
	}
	for k, v := range e.Vars {
		out.Vars[k] = v
	}
	for k, o := range e.OIDs {
		out.OIDs[k] = o
	}
	out.Vars[name] = v
	out.OIDs[name] = oid
	return out
}

// Expr is an evaluable expression node.
type Expr interface {
	Eval(env *Env) (object.Value, error)
	String() string
}

// Const is a literal value.
type Const struct {
	Val object.Value
	// Param, when nonzero, marks this literal as the (Param-1)-th parameter
	// of a normalized statement shape: the plan cache substitutes a fresh
	// value per execution, so constant folding must leave the node alone
	// (folding would bake the first binding's value into the plan shape).
	Param int
}

// Eval returns the literal.
func (c *Const) Eval(*Env) (object.Value, error) { return c.Val, nil }

func (c *Const) String() string { return c.Val.String() }

// Var references a range variable.
type Var struct{ Name string }

// Eval looks the variable up in the environment.
func (v *Var) Eval(env *Env) (object.Value, error) {
	if env != nil {
		if val, ok := env.Vars[v.Name]; ok {
			return val, nil
		}
		if b := env.slot(v.Name); b != nil {
			return b.Val, nil
		}
	}
	return object.Null, errUnbound(v.Name)
}

func errUnbound(name string) error { return fmt.Errorf("%w: %s", ErrUnbound, name) }

func (v *Var) String() string { return v.Name }

// Field accesses an attribute, dereferencing references transparently: this
// node chains into the paper's path expressions (an implicit join per hop).
type Field struct {
	Base Expr
	Name string
}

// Eval evaluates the base, chases a reference if necessary, and projects
// the attribute. Accessing an attribute of a null value yields null (the
// predicate then fails), matching SQL three-valued intuition without
// aborting the scan.
func (f *Field) Eval(env *Env) (object.Value, error) {
	base, err := f.Base.Eval(env)
	if err != nil {
		return object.Null, err
	}
	var resolve object.Resolver
	if env != nil {
		resolve = env.Resolve
	}
	return projectField(&base, f.Name, resolve, f)
}

// projectField is the attribute-projection core shared by the interpreter
// and the compiled closures: reference chasing, null propagation, and the
// exact error values are defined once here so both paths agree by
// construction. base is taken by pointer and never written through — Value
// is a 120-byte struct, and this core runs once per object on the
// vectorized scan's hot path. node is the Field being evaluated, used only
// for error text.
// nullValue backs the null results of projectFieldRef, so returning "no
// such attribute" needs no allocation. Read-only, like every Value handed
// across the expression APIs.
var nullValue = object.Null

// projectFieldRef is projectField without the 120-byte result copy: the
// returned pointer aliases base's field array (or the shared null), is
// read-only, and is valid only while base is. Resolution of a reference
// base allocates, exactly like projectField.
func projectFieldRef(base *object.Value, name string, resolve object.Resolver, node *Field) (*object.Value, error) {
	if base.Kind == object.KindNull {
		return &nullValue, nil
	}
	if base.Kind == object.KindReference {
		if base.Ref.IsNil() {
			return &nullValue, nil
		}
		if resolve == nil {
			return &nullValue, fmt.Errorf("%w: no resolver for %s", ErrNullDeref, node)
		}
		resolved, err := resolve(base.Ref)
		if err != nil {
			return &nullValue, err
		}
		base = &resolved
	}
	if base.Kind != object.KindTuple {
		return &nullValue, fmt.Errorf("%w: %s on %s value", ErrNoSuchAttr, name, base.Kind)
	}
	for i, n := range base.Names {
		if n == name {
			return &base.Fields[i], nil
		}
	}
	return &nullValue, nil // missing attribute reads as null
}

func projectField(base *object.Value, name string, resolve object.Resolver, node *Field) (object.Value, error) {
	v, err := projectFieldRef(base, name, resolve, node)
	return *v, err
}

func (f *Field) String() string { return f.Base.String() + "." + f.Name }

// Call invokes a member function on the base object (late-bound through the
// Function Manager supplied in the environment).
type Call struct {
	Base   Expr
	Method string
	Args   []Expr
}

// Eval evaluates the receiver and arguments, then dispatches.
func (c *Call) Eval(env *Env) (object.Value, error) {
	if env == nil || env.Invoke == nil {
		return object.Null, fmt.Errorf("expr: no method dispatcher for %s", c)
	}
	self, err := c.Base.Eval(env)
	if err != nil {
		return object.Null, err
	}
	var selfOID storage.OID
	if self.Kind == object.KindReference {
		selfOID = self.Ref
		if env.Resolve != nil && !self.Ref.IsNil() {
			if self, err = env.Resolve(self.Ref); err != nil {
				return object.Null, err
			}
		}
	} else if v, ok := c.Base.(*Var); ok {
		if env.OIDs != nil {
			selfOID = env.OIDs[v.Name]
		} else if b := env.slot(v.Name); b != nil {
			selfOID = b.OID
		}
	}
	args := make([]object.Value, len(c.Args))
	for i, a := range c.Args {
		if args[i], err = a.Eval(env); err != nil {
			return object.Null, err
		}
	}
	return env.Invoke(self, selfOID, c.Method, args)
}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s.%s(%s)", c.Base, c.Method, strings.Join(parts, ", "))
}

// ArithOp enumerates the overloaded arithmetic operators, in the paper's
// order: +, -, *, /, %.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[op] }

// Arith applies an arithmetic operator with run-time type promotion.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval evaluates both sides and applies the operator. Integer (op) Integer
// is integer arithmetic (truncating division, like the OperandDataType
// example); if either side is Float the computation is carried out in
// floating point; LongInteger widens Integer. String + String concatenates.
func (a *Arith) Eval(env *Env) (object.Value, error) {
	l, err := a.L.Eval(env)
	if err != nil {
		return object.Null, err
	}
	r, err := a.R.Eval(env)
	if err != nil {
		return object.Null, err
	}
	return applyArith(a.Op, &l, &r)
}

// applyArith is the run-time-typed arithmetic core shared by the interpreter
// and the compiled closures. Operands are taken by pointer (and never
// written through) to keep 120-byte Value copies off the per-object path.
func applyArith(op ArithOp, l, r *object.Value) (object.Value, error) {
	if l.IsNull() || r.IsNull() {
		return object.Null, nil
	}
	if op == OpAdd && l.Kind == object.KindString && r.Kind == object.KindString {
		return object.NewString(l.Str + r.Str), nil
	}
	li, lInt := l.AsInt()
	ri, rInt := r.AsInt()
	if lInt && rInt && l.Kind != object.KindFloat && r.Kind != object.KindFloat {
		out, err := intArith(op, li, ri)
		if err != nil {
			return object.Null, err
		}
		if l.Kind == object.KindLongInteger || r.Kind == object.KindLongInteger {
			return object.NewLong(out), nil
		}
		return object.NewInt(int32(out)), nil
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return object.Null, fmt.Errorf("%w: %s %s %s", ErrType, l.Kind, op, r.Kind)
	}
	switch op {
	case OpAdd:
		return object.NewFloat(lf + rf), nil
	case OpSub:
		return object.NewFloat(lf - rf), nil
	case OpMul:
		return object.NewFloat(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return object.Null, ErrDivByZero
		}
		return object.NewFloat(lf / rf), nil
	case OpMod:
		return object.Null, fmt.Errorf("%w: %% needs integer operands", ErrType)
	}
	return object.Null, fmt.Errorf("expr: unknown operator %v", op)
}

func intArith(op ArithOp, l, r int64) (int64, error) {
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, ErrDivByZero
		}
		return l / r, nil
	case OpMod:
		if r == 0 {
			return 0, ErrDivByZero
		}
		return l % r, nil
	}
	return 0, fmt.Errorf("expr: unknown operator %v", op)
}

func (a *Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// Neg is unary minus.
type Neg struct{ E Expr }

// Eval negates a numeric value.
func (n *Neg) Eval(env *Env) (object.Value, error) {
	v, err := n.E.Eval(env)
	if err != nil {
		return object.Null, err
	}
	return applyNeg(&v)
}

// applyNeg is the unary-minus core shared by the interpreter and the
// compiled closures.
func applyNeg(v *object.Value) (object.Value, error) {
	if v.IsNull() {
		return object.Null, nil
	}
	switch v.Kind {
	case object.KindInteger:
		return object.NewInt(int32(-v.Int)), nil
	case object.KindLongInteger:
		return object.NewLong(-v.Int), nil
	case object.KindFloat:
		return object.NewFloat(-v.Flt), nil
	}
	return object.Null, fmt.Errorf("%w: -%s", ErrType, v.Kind)
}

func (n *Neg) String() string { return "-" + n.E.String() }

// CmpOp enumerates the comparison operators of a simple predicate
// <P1, theta, oprnd>: =, <>, >=, <=, >, <.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpGe
	OpLe
	OpGt
	OpLt
)

func (op CmpOp) String() string { return [...]string{"=", "<>", ">=", "<=", ">", "<"}[op] }

// Negate returns the complementary operator.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpGe:
		return OpLt
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpLt:
		return OpGe
	}
	return op
}

// Cmp compares two expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval performs the comparison; comparisons involving null are false (and
// <> with null is also false, conservative three-valued logic collapsed to
// two values, as a 1994 system would).
func (c *Cmp) Eval(env *Env) (object.Value, error) {
	l, err := c.L.Eval(env)
	if err != nil {
		return object.Null, err
	}
	r, err := c.R.Eval(env)
	if err != nil {
		return object.Null, err
	}
	return applyCmp(c.Op, &l, &r)
}

// applyCmp is the comparison core shared by the interpreter and the
// compiled closures: null handling, reference identity, and the structural
// fallback live here once. Operands are taken by pointer (and never written
// through) to keep 120-byte Value copies off the per-object path.
func applyCmp(op CmpOp, l, r *object.Value) (object.Value, error) {
	if l.IsNull() || r.IsNull() {
		return object.NewBool(false), nil
	}
	// String-to-string is the common scan-predicate shape; compare in place
	// (same ordering as object.Compare) without copying the operands.
	if l.Kind == object.KindString && r.Kind == object.KindString {
		return cmpResult(op, strings.Compare(l.Str, r.Str))
	}
	// References compare by identity.
	if l.Kind == object.KindReference || r.Kind == object.KindReference {
		switch op {
		case OpEq:
			return object.NewBool(object.Equal(*l, *r)), nil
		case OpNe:
			return object.NewBool(!object.Equal(*l, *r)), nil
		default:
			return object.Null, fmt.Errorf("%w: references only support = and <>", ErrType)
		}
	}
	cmp, ok := object.Compare(*l, *r)
	if !ok {
		// Fall back to structural equality for collections/tuples.
		if op == OpEq {
			return object.NewBool(object.Equal(*l, *r)), nil
		}
		if op == OpNe {
			return object.NewBool(!object.Equal(*l, *r)), nil
		}
		return object.Null, fmt.Errorf("%w: cannot order %s and %s", ErrType, l.Kind, r.Kind)
	}
	return cmpResult(op, cmp)
}

// cmpHolds reports whether an ordering satisfies the operator.
func cmpHolds(op CmpOp, cmp int) (bool, error) {
	switch op {
	case OpEq:
		return cmp == 0, nil
	case OpNe:
		return cmp != 0, nil
	case OpGe:
		return cmp >= 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpLt:
		return cmp < 0, nil
	}
	return false, fmt.Errorf("expr: unknown comparison %v", op)
}

// cmpResult maps an ordering to the boolean the operator selects.
func cmpResult(op CmpOp, cmp int) (object.Value, error) {
	b, err := cmpHolds(op, cmp)
	if err != nil {
		return object.Null, err
	}
	return object.NewBool(b), nil
}

// applyCmpBool is applyCmp for callers that only need the truth value: the
// hot string-to-string shape short-circuits to a bool without constructing
// a 120-byte result Value; everything else delegates to applyCmp and
// coerces exactly as Value.Bool does.
func applyCmpBool(op CmpOp, l, r *object.Value) (bool, error) {
	if l.Kind == object.KindString && r.Kind == object.KindString {
		return cmpHolds(op, strings.Compare(l.Str, r.Str))
	}
	v, err := applyCmp(op, l, r)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

func (c *Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// Between is "e BETWEEN lo AND hi", the predicate form the selectivity
// formulas of Section 4.1 treat specially.
type Between struct {
	E, Lo, Hi Expr
}

// desugar is the Cmp/Logic composition BETWEEN evaluates as; the compiler
// lowers the same composition so both paths evaluate E twice with identical
// short-circuiting.
func (b *Between) desugar() Expr {
	return &Logic{Op: OpAnd,
		L: &Cmp{Op: OpGe, L: b.E, R: b.Lo},
		R: &Cmp{Op: OpLe, L: b.E, R: b.Hi}}
}

// Eval checks lo <= e <= hi.
func (b *Between) Eval(env *Env) (object.Value, error) {
	return b.desugar().Eval(env)
}

func (b *Between) String() string { return fmt.Sprintf("%s BETWEEN %s AND %s", b.E, b.Lo, b.Hi) }

// LogicOp enumerates AND and OR.
type LogicOp uint8

// Boolean connectives.
const (
	OpAnd LogicOp = iota
	OpOr
)

func (op LogicOp) String() string {
	if op == OpOr {
		return "OR"
	}
	return "AND"
}

// Logic is a binary Boolean connective with short-circuit evaluation — the
// behaviour §8.1's predicate ordering heuristic exploits ("analogous to
// short circuiting used in compilers for Boolean expression evaluation").
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// Eval short-circuits: AND stops on false, OR stops on true.
func (l *Logic) Eval(env *Env) (object.Value, error) {
	lv, err := l.L.Eval(env)
	if err != nil {
		return object.Null, err
	}
	lb := lv.Bool()
	if l.Op == OpAnd && !lb {
		return object.NewBool(false), nil
	}
	if l.Op == OpOr && lb {
		return object.NewBool(true), nil
	}
	rv, err := l.R.Eval(env)
	if err != nil {
		return object.Null, err
	}
	return object.NewBool(rv.Bool()), nil
}

func (l *Logic) String() string { return fmt.Sprintf("(%s %s %s)", l.L, l.Op, l.R) }

// Not negates a Boolean expression.
type Not struct{ E Expr }

// Eval negates.
func (n *Not) Eval(env *Env) (object.Value, error) {
	v, err := n.E.Eval(env)
	if err != nil {
		return object.Null, err
	}
	return object.NewBool(!v.Bool()), nil
}

func (n *Not) String() string { return "NOT " + n.E.String() }

// Path builds the nested Field chain for a path expression such as
// v.drivetrain.engine.cylinders.
func Path(varName string, attrs ...string) Expr {
	var e Expr = &Var{Name: varName}
	for _, a := range attrs {
		e = &Field{Base: e, Name: a}
	}
	return e
}

// EvalBool evaluates e and coerces the result to a Go bool.
func EvalBool(e Expr, env *Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

// Cast converts v to the destination type at run time, the
// OperandDataType assignment behaviour ("result's type is casted to double
// since z is double").
func Cast(v object.Value, dst *object.Type) (object.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch dst.Kind {
	case object.KindInteger:
		if i, ok := v.AsInt(); ok {
			return object.NewInt(int32(i)), nil
		}
		if f, ok := v.AsFloat(); ok {
			return object.NewInt(int32(f)), nil
		}
	case object.KindLongInteger:
		if i, ok := v.AsInt(); ok {
			return object.NewLong(i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return object.NewLong(int64(f)), nil
		}
	case object.KindFloat:
		if f, ok := v.AsFloat(); ok {
			return object.NewFloat(f), nil
		}
	case object.KindBoolean:
		if v.Kind == object.KindBoolean {
			return v, nil
		}
	case object.KindString:
		if v.Kind == object.KindString {
			if dst.StrLen > 0 && len(v.Str) > dst.StrLen {
				return object.NewString(v.Str[:dst.StrLen]), nil
			}
			return v, nil
		}
	case object.KindChar:
		if v.Kind == object.KindChar {
			return v, nil
		}
		if i, ok := v.AsInt(); ok {
			return object.NewChar(rune(i)), nil
		}
	default:
		if v.Kind == dst.Kind {
			return v, nil
		}
	}
	return object.Null, fmt.Errorf("%w: cannot cast %s to %s", ErrType, v.Kind, dst)
}
