package plan

import (
	"fmt"

	"gdbm/internal/model"
	"gdbm/internal/query"
)

// NodePat is one node in a match pattern.
type NodePat struct {
	Var   string
	Label string
	Props model.Properties
}

// EdgePat is one edge in a match pattern, joining pattern nodes by index.
// VarLength edges match paths of Min..Max edges instead of a single edge
// (Max 0 = unbounded); they cannot bind an edge variable.
type EdgePat struct {
	Var       string
	Label     string
	From, To  int
	Dir       model.Direction // Out means From->To; Both matches either way
	VarLength bool
	Min, Max  int
}

// MatchSpec is the logical form every front-end parses into: a graph
// pattern, an optional predicate, a projection, and result modifiers.
type MatchSpec struct {
	Nodes    []NodePat
	Edges    []EdgePat
	Where    query.Expr
	Return   []Item
	Aggs     []AggItem
	GroupBy  []Item // derived: Return items when Aggs non-empty
	OrderBy  []OrderKey
	Distinct bool
	Limit    int // -1 = none
	Offset   int
}

// Compile turns a MatchSpec into an operator tree. The strategy is greedy
// left-deep: start from the most selective node pattern (one with property
// equalities, then one with a label), expand connected edges, and cross-scan
// disconnected pattern components; Where becomes a Filter, then projection
// and modifiers.
func Compile(spec *MatchSpec) (Op, error) {
	if err := prepare(spec); err != nil {
		return nil, err
	}
	bound := make([]bool, len(spec.Nodes))
	edgeDone := make([]bool, len(spec.Edges))

	start := pickStart(spec.Nodes)
	var root Op = &NodeScan{
		Var:    spec.Nodes[start].Var,
		Label:  spec.Nodes[start].Label,
		PropEq: spec.Nodes[start].Props,
	}
	bound[start] = true

	for {
		progressed := false
		for ei, e := range spec.Edges {
			if edgeDone[ei] {
				continue
			}
			mkExpand := func(fromIdx, toIdx int, dir model.Direction) Op {
				return edgeOp(root, e, spec.Nodes[fromIdx].Var, spec.Nodes[toIdx].Var, dir)
			}
			switch {
			case bound[e.From] && bound[e.To]:
				// Connectivity check between two bound nodes.
				root = mkExpand(e.From, e.To, e.Dir)
			case bound[e.From]:
				root = mkExpand(e.From, e.To, e.Dir)
				root = constrainNode(root, spec.Nodes[e.To])
				bound[e.To] = true
			case bound[e.To]:
				root = mkExpand(e.To, e.From, e.Dir.Reverse())
				root = constrainNode(root, spec.Nodes[e.From])
				bound[e.From] = true
			default:
				continue
			}
			edgeDone[ei] = true
			progressed = true
		}
		if allTrue(edgeDone) && allTrue(bound) {
			break
		}
		if !progressed {
			// Disconnected component: cross-scan the next selective
			// unbound node.
			next := -1
			for i := range spec.Nodes {
				if !bound[i] {
					if next == -1 || selectivity(spec.Nodes[i]) > selectivity(spec.Nodes[next]) {
						next = i
					}
				}
			}
			if next == -1 {
				break
			}
			root = &NodeScan{
				Child:  root,
				Var:    spec.Nodes[next].Var,
				Label:  spec.Nodes[next].Label,
				PropEq: spec.Nodes[next].Props,
			}
			bound[next] = true
		}
	}

	root = applyModifiers(root, spec)
	bindTree(root)
	return root, nil
}

// edgeOp builds the operator that walks pattern edge e in dir from the node
// bound to from, binding or checking to: an Expand, or for a var-length
// edge the PathExpand of label* with e's bounds.
func edgeOp(child Op, e EdgePat, from, to string, dir model.Direction) Op {
	if e.VarLength {
		return &PathExpand{Child: child, FromVar: from, ToVar: to, Path: labelStar(e.Label, dir), Min: e.Min, Max: e.Max}
	}
	return &Expand{Child: child, FromVar: from, EdgeVar: e.Var, ToVar: to, Label: e.Label, Dir: dir}
}

// prepare validates and normalizes a MatchSpec in place: the pattern is
// checked for the shapes no planner can execute, then anonymous node
// patterns receive synthetic variables that no user variable has. Both
// planners share it, so an invalid spec fails identically — same error, no
// panics — regardless of which planner a front-end selects. prepare is
// idempotent.
func prepare(spec *MatchSpec) error {
	if len(spec.Nodes) == 0 {
		return fmt.Errorf("plan: empty match pattern")
	}
	vars := make(map[string]bool, len(spec.Nodes)+len(spec.Edges))
	for _, n := range spec.Nodes {
		if n.Var == "" {
			continue
		}
		if vars[n.Var] {
			return fmt.Errorf("plan: duplicate variable %q", n.Var)
		}
		vars[n.Var] = true
	}
	for ei, e := range spec.Edges {
		if e.From < 0 || e.From >= len(spec.Nodes) || e.To < 0 || e.To >= len(spec.Nodes) {
			return fmt.Errorf("plan: edge %d endpoint out of range", ei)
		}
		if e.VarLength {
			if e.Var != "" {
				return fmt.Errorf("plan: var-length edge %d cannot bind a variable", ei)
			}
			if e.Min < 0 {
				return fmt.Errorf("plan: edge %d has negative minimum length", ei)
			}
			continue
		}
		if e.Var == "" {
			continue
		}
		if vars[e.Var] {
			return fmt.Errorf("plan: duplicate variable %q", e.Var)
		}
		vars[e.Var] = true
	}
	// Anonymous nodes are named last, each _n<index> with underscores
	// prefixed until the name is free: a front end may hand any name
	// through, so no fixed scheme can stay clear of user variables.
	for i := range spec.Nodes {
		if spec.Nodes[i].Var != "" {
			continue
		}
		v := fmt.Sprintf("_n%d", i)
		for vars[v] {
			v = "_" + v
		}
		vars[v] = true
		spec.Nodes[i].Var = v
	}
	return nil
}

// applyModifiers wraps the pattern-matching tree with the spec's predicate,
// projection and result modifiers, in the fixed order every planner shares:
// Filter, Aggregate/Project, Distinct, OrderBy, Limit/Offset. Keeping this
// in one place is what makes reordered plans answer-equivalent — only the
// pattern subtree differs between planners.
func applyModifiers(root Op, spec *MatchSpec) Op {
	if spec.Where != nil {
		root = &Filter{Child: root, Cond: spec.Where}
	}
	if len(spec.Aggs) > 0 {
		root = &Aggregate{Child: root, GroupBy: spec.GroupBy, Aggs: spec.Aggs}
	} else if len(spec.Return) > 0 {
		root = &Project{Child: root, Items: spec.Return}
	}
	if spec.Distinct {
		root = &Distinct{Child: root}
	}
	if len(spec.OrderBy) > 0 {
		root = &OrderBy{Child: root, Keys: spec.OrderBy}
	}
	if spec.Limit >= 0 || spec.Offset > 0 {
		n := spec.Limit
		if n < 0 {
			n = -1
		}
		root = &Limit{Child: root, N: n, Offset: spec.Offset}
	}
	return root
}

func constrainNode(child Op, n NodePat) Op {
	if n.Label == "" && len(n.Props) == 0 {
		return child
	}
	var cond query.Expr
	add := func(e query.Expr) {
		if cond == nil {
			cond = e
		} else {
			cond = query.BinOp{Op: "and", L: cond, R: e}
		}
	}
	for k, v := range n.Props {
		add(query.BinOp{Op: "=", L: query.Var{Name: n.Var, Prop: k}, R: query.Lit{V: v}})
	}
	if n.Label != "" {
		add(labelIs{v: n.Var, label: n.Label})
	}
	return &Filter{Child: child, Cond: cond}
}

// labelIs tests a bound node's label; labels are not properties, so this is
// a dedicated expression. Binding it puts the variable in the read-set.
type labelIs struct {
	v     string
	label string
	slot  int // 1-based; 0 = unbound
}

// Bind implements query.Binder.
func (l labelIs) Bind(s *query.Scope) query.Expr {
	if slot, ok := s.Slot(l.v); ok {
		s.Read[slot] = true
		l.slot = slot + 1
	}
	return l
}

// Eval implements query.Expr.
func (l labelIs) Eval(r query.Row) (model.Value, error) {
	if l.slot == 0 || l.slot > len(r) {
		return model.Null(), fmt.Errorf("unbound variable %q", l.v)
	}
	switch e := r[l.slot-1]; e.Kind {
	case query.EntryNode:
		return model.Bool(e.Node.Label == l.label), nil
	case query.EntryEdge:
		return model.Bool(e.Edge.Label == l.label), nil
	}
	return model.Bool(false), nil
}

// String implements query.Expr.
func (l labelIs) String() string { return fmt.Sprintf("label(%s)=%s", l.v, l.label) }

func pickStart(nodes []NodePat) int {
	best, bestScore := 0, -1
	for i, n := range nodes {
		if s := selectivity(n); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

func selectivity(n NodePat) int {
	s := 0
	if len(n.Props) > 0 {
		s += 2 + len(n.Props)
	}
	if n.Label != "" {
		s++
	}
	return s
}

func allTrue(b []bool) bool {
	for _, v := range b {
		if !v {
			return false
		}
	}
	return true
}

// Result is a materialized query result table.
type Result struct {
	Cols []string
	Rows [][]model.Value
}

// Clone returns an independent copy (values themselves are immutable).
// Result caches store and serve clones so callers may mutate what they get.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	c := &Result{Cols: append([]string(nil), r.Cols...)}
	if r.Rows != nil {
		c.Rows = make([][]model.Value, len(r.Rows))
		for i, row := range r.Rows {
			c.Rows[i] = append([]model.Value(nil), row...)
		}
	}
	return c
}

// Collect runs an operator tree and materializes the output rows under the
// given column order. It is Stream into an in-memory sink, so collected and
// streamed executions share one row-production path.
func Collect(op Op, src Source, cols []string) (*Result, error) {
	var c Collector
	if err := Stream(op, src, cols, &c); err != nil {
		return nil, err
	}
	return &c.Res, nil
}
