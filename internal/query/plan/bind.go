package plan

import (
	"fmt"
	"sort"
	"strings"

	"gdbm/internal/query"
)

// stage is embedded by every operator: the scope of the rows it emits.
type stage struct{ sc *query.Scope }

func (s *stage) scope() *query.Scope { return s.sc }

// ScopeOf returns the scope of the rows a compiled tree emits. A caller that
// evaluates expressions of its own over them (gql's write clauses) binds them
// against it before the run, extending the read-set, and may Add slots.
func ScopeOf(op Op) *query.Scope { return op.(interface{ scope() *query.Scope }).scope() }

// declare returns name's pattern slot, adding one unless already bound below.
func declare(sc *query.Scope, name string) (slot int, bound bool) {
	if slot, ok := sc.Slot(name); ok {
		return slot, true
	}
	return sc.Add(name), false
}

// bindItems binds items against in and adds their names, in order, to out.
func bindItems(items []Item, in, out *query.Scope) []query.Expr {
	exprs := make([]query.Expr, len(items))
	for i, it := range items {
		exprs[i] = query.Bind(it.Expr, in)
		out.Add(it.Name)
	}
	return exprs
}

// bindTree resolves the variable names of a finished operator tree to row
// slots, children first, and returns the scope of the rows op emits. The
// planners call it once, after applyModifiers, so each stage resolves names
// against the scope it really sees: the pattern operators share one scope
// and one row, Project and Aggregate each open a new one, the modifiers
// pass their child's through. Whether an operator meets a variable already
// bound is decided here, not per row. The read-set is complete only once
// everything is bound (ScopeOf), so operators consult it when they run.
func bindTree(op Op) *query.Scope {
	switch x := op.(type) {
	case *NodeScan:
		x.sc = &query.Scope{}
		if x.Child != nil {
			x.sc = bindTree(x.Child)
		}
		x.slot, _ = declare(x.sc, x.Var)
	case *nodeRow:
		x.sc = &query.Scope{}
		x.slot, _ = declare(x.sc, x.Var)
	case *Expand:
		x.sc = bindTree(x.Child)
		x.from, _ = x.sc.Slot(x.FromVar)
		x.to, x.toBound = declare(x.sc, x.ToVar)
		x.edge = -1
		if x.EdgeVar != "" {
			x.edge, _ = declare(x.sc, x.EdgeVar)
		}
	case *PathExpand:
		x.sc = bindTree(x.Child)
		x.from, _ = x.sc.Slot(x.FromVar)
		x.to, x.toBound = declare(x.sc, x.ToVar)
		if x.Min == 0 && !x.toBound && x.from >= 0 {
			// A zero-length path binds ToVar to the start node's own entry,
			// which must then hold whatever a reader of ToVar may want.
			x.sc.Read[x.from] = true
		}
	case *IntersectExpand:
		x.sc = bindTree(x.Child)
		x.from = make([]int, len(x.Inputs))
		for i, in := range x.Inputs {
			x.from[i], _ = x.sc.Slot(in.FromVar)
		}
		x.to, _ = declare(x.sc, x.ToVar)
	case *Filter:
		x.sc = bindTree(x.Child)
		x.cond = query.Bind(x.Cond, x.sc)
	case *Project:
		x.sc = &query.Scope{}
		x.exprs = bindItems(x.Items, bindTree(x.Child), x.sc)
	case *Aggregate:
		in := bindTree(x.Child)
		x.sc = &query.Scope{}
		x.keys = bindItems(x.GroupBy, in, x.sc)
		x.args, x.fns = make([]query.Expr, len(x.Aggs)), make([]string, len(x.Aggs))
		for i, ag := range x.Aggs {
			x.args[i], x.fns[i] = query.Bind(ag.Arg, in), strings.ToLower(ag.Fn)
			x.sc.Add(ag.Name)
		}
	case *Distinct:
		// Identity is every visible binding, in name order.
		x.sc = bindTree(x.Child)
		x.slots = x.slots[:0]
		for slot, name := range x.sc.Names {
			if vis, _ := x.sc.Slot(name); vis == slot {
				x.slots = append(x.slots, slot)
			}
		}
		sort.Slice(x.slots, func(i, j int) bool { return x.sc.Names[x.slots[i]] < x.sc.Names[x.slots[j]] })
	case *OrderBy:
		x.sc = bindTree(x.Child)
		x.keys = make([]query.Expr, len(x.Keys))
		for i, k := range x.Keys {
			x.keys[i] = query.Bind(k.Expr, x.sc)
		}
	case *Limit:
		x.sc = bindTree(x.Child)
	default:
		panic(fmt.Sprintf("plan: cannot bind operator %T", op))
	}
	return ScopeOf(op)
}
