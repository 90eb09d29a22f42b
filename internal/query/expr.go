package query

import (
	"fmt"
	"strconv"
	"strings"

	"gdbm/internal/model"
)

// Entry is one binding in a row: a node, an edge, or a scalar value. A node
// or edge entry always carries its ID; the operators fill in Label and
// Props only for variables in the plan's read-set (Scope.Read).
type Entry struct {
	Kind  EntryKind
	Node  model.Node
	Edge  model.Edge
	Value model.Value
}

// EntryKind discriminates Entry.
type EntryKind uint8

const (
	EntryValue EntryKind = iota
	EntryNode
	EntryEdge
)

// NodeEntry wraps a node binding.
func NodeEntry(n model.Node) Entry { return Entry{Kind: EntryNode, Node: n} }

// EdgeEntry wraps an edge binding.
func EdgeEntry(e model.Edge) Entry { return Entry{Kind: EntryEdge, Edge: e} }

// ValueEntry wraps a scalar binding.
func ValueEntry(v model.Value) Entry { return Entry{Kind: EntryValue, Value: v} }

// Scalar reduces the entry to a value: nodes and edges reduce to their IDs.
func (e Entry) Scalar() model.Value {
	switch e.Kind {
	case EntryNode:
		return model.Int(int64(e.Node.ID))
	case EntryEdge:
		return model.Int(int64(e.Edge.ID))
	default:
		return e.Value
	}
}

// Prop resolves a property access against the entry.
func (e Entry) Prop(name string) model.Value {
	switch e.Kind {
	case EntryNode:
		return e.Node.Props.Get(name)
	case EntryEdge:
		return e.Edge.Props.Get(name)
	default:
		return model.Null()
	}
}

// Row is the binding environment flowing through query operators: one entry
// per slot of its plan stage's Scope, written in place.
type Row []Entry

// Scope maps the variable names visible at one stage of a plan to row
// slots: Names[i] is held in slot i, and Read[i] puts it in the read-set —
// a bound expression reads its label or a property, not just its ID.
type Scope struct {
	Names []string
	Read  []bool
}

// Add appends a slot for name; an earlier slot of the same name is shadowed.
func (s *Scope) Add(name string) int {
	s.Names, s.Read = append(s.Names, name), append(s.Read, false)
	return len(s.Names) - 1
}

// Slot returns the visible slot of name, or -1.
func (s *Scope) Slot(name string) (int, bool) {
	for i := len(s.Names) - 1; i >= 0; i-- {
		if s.Names[i] == name {
			return i, true
		}
	}
	return -1, false
}

// Binder is implemented by expressions defined outside this package that
// read row variables: Bind resolves them against a scope.
type Binder interface{ Bind(s *Scope) Expr }

// Bind resolves the variables of e to slots of s and marks as read every
// variable whose property is accessed. A name s does not hold stays unbound
// and fails when evaluated: a dangling reference errs only if a row gets there.
func Bind(e Expr, s *Scope) Expr {
	return Rewrite(e, func(leaf Expr) Expr {
		switch x := leaf.(type) {
		case Var:
			if slot, ok := s.Slot(x.Name); ok {
				x.slot = slot + 1
				s.Read[slot] = s.Read[slot] || x.Prop != ""
			}
			return x
		case Binder:
			return x.Bind(s)
		}
		return leaf
	})
}

// Rewrite rebuilds e with every leaf (anything but BinOp, Not, Neg and Call)
// replaced by leaf's result; nil stays nil.
func Rewrite(e Expr, leaf func(Expr) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case BinOp:
		return BinOp{Op: x.Op, L: Rewrite(x.L, leaf), R: Rewrite(x.R, leaf)}
	case Not:
		return Not{E: Rewrite(x.E, leaf)}
	case Neg:
		return Neg{E: Rewrite(x.E, leaf)}
	case Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Rewrite(a, leaf)
		}
		return Call{Fn: x.Fn, Args: args}
	}
	return leaf(e)
}

// Expr is an evaluable expression over a Row.
type Expr interface {
	Eval(r Row) (model.Value, error)
	String() string
}

// Lit is a literal value.
type Lit struct{ V model.Value }

// Eval implements Expr.
func (l Lit) Eval(Row) (model.Value, error) { return l.V, nil }

// String implements Expr.
func (l Lit) String() string {
	if l.V.Kind() == model.KindString {
		return strconv.Quote(l.V.String())
	}
	return l.V.String()
}

// Var references a binding; with Prop set it accesses a property. Parsers
// build it by name; Bind resolves the name to a slot.
type Var struct {
	Name string
	Prop string
	slot int // 1-based; 0 = unbound
}

// Eval implements Expr.
func (v Var) Eval(r Row) (model.Value, error) {
	if v.slot == 0 || v.slot > len(r) {
		return model.Null(), fmt.Errorf("unbound variable %q", v.Name)
	}
	e := r[v.slot-1]
	if v.Prop != "" {
		return e.Prop(v.Prop), nil
	}
	return e.Scalar(), nil
}

// String implements Expr.
func (v Var) String() string {
	if v.Prop != "" {
		return v.Name + "." + v.Prop
	}
	return v.Name
}

// BinOp applies a binary operator.
type BinOp struct {
	Op   string // = <> < <= > >= + - * / and or
	L, R Expr
}

// Eval implements Expr.
func (b BinOp) Eval(r Row) (model.Value, error) {
	lv, err := b.L.Eval(r)
	if err != nil {
		return model.Null(), err
	}
	// Short-circuit boolean operators.
	switch b.Op {
	case "and":
		if lb, ok := lv.AsBool(); ok && !lb {
			return model.Bool(false), nil
		}
		rv, err := b.R.Eval(r)
		if err != nil {
			return model.Null(), err
		}
		lb, lok := lv.AsBool()
		rb, rok := rv.AsBool()
		if !lok || !rok {
			return model.Null(), fmt.Errorf("AND requires booleans, got %v and %v", lv.Kind(), rv.Kind())
		}
		return model.Bool(lb && rb), nil
	case "or":
		if lb, ok := lv.AsBool(); ok && lb {
			return model.Bool(true), nil
		}
		rv, err := b.R.Eval(r)
		if err != nil {
			return model.Null(), err
		}
		lb, lok := lv.AsBool()
		rb, rok := rv.AsBool()
		if !lok || !rok {
			return model.Null(), fmt.Errorf("OR requires booleans, got %v and %v", lv.Kind(), rv.Kind())
		}
		return model.Bool(lb || rb), nil
	}
	rv, err := b.R.Eval(r)
	if err != nil {
		return model.Null(), err
	}
	switch b.Op {
	case "=":
		return model.Bool(lv.Equal(rv)), nil
	case "<>", "!=":
		return model.Bool(!lv.Equal(rv)), nil
	case "<":
		return model.Bool(lv.Compare(rv) < 0), nil
	case "<=":
		return model.Bool(lv.Compare(rv) <= 0), nil
	case ">":
		return model.Bool(lv.Compare(rv) > 0), nil
	case ">=":
		return model.Bool(lv.Compare(rv) >= 0), nil
	case "+", "-", "*", "/":
		return arith(b.Op, lv, rv)
	}
	return model.Null(), fmt.Errorf("unknown operator %q", b.Op)
}

func arith(op string, a, b model.Value) (model.Value, error) {
	if op == "+" && (a.Kind() == model.KindString || b.Kind() == model.KindString) {
		return model.Str(a.String() + b.String()), nil
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return model.Null(), fmt.Errorf("arithmetic on non-numeric values %v, %v", a, b)
	}
	var f float64
	switch op {
	case "+":
		f = af + bf
	case "-":
		f = af - bf
	case "*":
		f = af * bf
	case "/":
		if bf == 0 {
			return model.Null(), fmt.Errorf("division by zero")
		}
		f = af / bf
	}
	// Keep integer arithmetic integral.
	ai, aInt := a.AsInt()
	bi, bInt := b.AsInt()
	if aInt && bInt && op != "/" {
		switch op {
		case "+":
			return model.Int(ai + bi), nil
		case "-":
			return model.Int(ai - bi), nil
		case "*":
			return model.Int(ai * bi), nil
		}
	}
	return model.Float(f), nil
}

// String implements Expr.
func (b BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(r Row) (model.Value, error) {
	v, err := n.E.Eval(r)
	if err != nil {
		return model.Null(), err
	}
	b, ok := v.AsBool()
	if !ok {
		return model.Null(), fmt.Errorf("NOT requires a boolean, got %v", v.Kind())
	}
	return model.Bool(!b), nil
}

// String implements Expr.
func (n Not) String() string { return "(not " + n.E.String() + ")" }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// Eval implements Expr.
func (n Neg) Eval(r Row) (model.Value, error) {
	v, err := n.E.Eval(r)
	if err != nil {
		return model.Null(), err
	}
	if i, ok := v.AsInt(); ok {
		return model.Int(-i), nil
	}
	if f, ok := v.AsFloat(); ok {
		return model.Float(-f), nil
	}
	return model.Null(), fmt.Errorf("negation of non-numeric %v", v)
}

// String implements Expr.
func (n Neg) String() string { return "(-" + n.E.String() + ")" }

// Call invokes a scalar builtin. Aggregates are handled by the Aggregate
// operator, not here.
type Call struct {
	Fn   string
	Args []Expr
}

// Eval implements Expr.
func (c Call) Eval(r Row) (model.Value, error) {
	args := make([]model.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(r)
		if err != nil {
			return model.Null(), err
		}
		args[i] = v
	}
	switch strings.ToLower(c.Fn) {
	case "id":
		// id(x) — the identifier of a bound node/edge; Var.Eval already
		// reduces entities to IDs, so this is identity on its arg.
		if len(args) != 1 {
			return model.Null(), fmt.Errorf("id() takes 1 argument")
		}
		return args[0], nil
	case "length", "len":
		if len(args) != 1 {
			return model.Null(), fmt.Errorf("length() takes 1 argument")
		}
		if s, ok := args[0].AsString(); ok {
			return model.Int(int64(len(s))), nil
		}
		return model.Null(), fmt.Errorf("length() requires a string")
	case "lower":
		if s, ok := args[0].AsString(); ok && len(args) == 1 {
			return model.Str(strings.ToLower(s)), nil
		}
		return model.Null(), fmt.Errorf("lower() requires a string")
	case "upper":
		if s, ok := args[0].AsString(); ok && len(args) == 1 {
			return model.Str(strings.ToUpper(s)), nil
		}
		return model.Null(), fmt.Errorf("upper() requires a string")
	case "abs":
		if i, ok := args[0].AsInt(); ok && len(args) == 1 {
			if i < 0 {
				return model.Int(-i), nil
			}
			return model.Int(i), nil
		}
		if f, ok := args[0].AsFloat(); ok && len(args) == 1 {
			if f < 0 {
				return model.Float(-f), nil
			}
			return model.Float(f), nil
		}
		return model.Null(), fmt.Errorf("abs() requires a number")
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return model.Null(), nil
	}
	return model.Null(), fmt.Errorf("unknown function %q", c.Fn)
}

// String implements Expr.
func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// AggFuncs names the aggregate functions recognized by parsers; expressions
// with these heads are routed to the Aggregate operator.
var AggFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}
