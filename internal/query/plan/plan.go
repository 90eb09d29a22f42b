// Package plan contains the logical query representation, the planner and
// the physical operators shared by the three query-language front-ends. A
// parsed query becomes a MatchSpec (graph pattern + predicate + projection);
// the planner compiles it into a tree of push-based operators that run
// against any engine exposing the Source interface.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"gdbm/internal/model"
	"gdbm/internal/query"
)

// Source is the engine surface the executor needs: structural reads plus an
// optional index-accelerated node lookup.
type Source interface {
	model.Graph
	// IndexedNodes streams nodes with the given label ("" = any) and, if
	// prop is non-empty, with prop equal to v, using a secondary index.
	// handled reports whether an index served the request; when false the
	// executor falls back to a full scan.
	IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (handled bool, err error)
}

// UnindexedSource adapts a bare model.Graph into a Source with no indexes.
type UnindexedSource struct{ model.Graph }

// IndexedNodes implements Source; it never handles the request.
func (UnindexedSource) IndexedNodes(string, string, model.Value, func(model.Node) bool) (bool, error) {
	return false, nil
}

// AppendNeighborIDs forwards model.IDAdjacency when the wrapped graph has
// it; otherwise it reports unhandled and the operators use Neighbors.
func (u UnindexedSource) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	if ia, ok := u.Graph.(model.IDAdjacency); ok {
		return ia.AppendNeighborIDs(buf, id, dir, label)
	}
	return buf, false, nil
}

// Op is a push-based physical operator: it streams rows to emit. Returning
// a non-nil error from emit aborts execution with that error. The operator
// overwrites the row once emit returns: an emit that keeps a row copies it.
type Op interface {
	Run(src Source, emit func(query.Row) error) error
	String() string
}

// errStop signals deliberate early termination (e.g. Limit reached).
var errStop = fmt.Errorf("plan: stop")

// --- NodeScan ---

// NodeScan binds Var to every node matching Label and PropEq. With a Child,
// it expands each input row (cartesian semantics); without, it is a leaf.
// A scanned node arrives as a record, so Var is always loaded.
type NodeScan struct {
	Child  Op // may be nil
	Var    string
	Label  string
	PropEq model.Properties // all must match

	stage
	slot int
}

// Run implements Op.
func (s *NodeScan) Run(src Source, emit func(query.Row) error) error {
	var row query.Row
	var emitErr error
	keys := s.PropEq.Keys() // sorted: the index probe order
	send := func(n model.Node) bool {
		if s.Label != "" && n.Label != s.Label {
			return true
		}
		for k, v := range s.PropEq {
			if !n.Props.Get(k).Equal(v) {
				return true
			}
		}
		row[s.slot] = query.NodeEntry(n)
		emitErr = emit(row)
		return emitErr == nil
	}
	scanInto := func(base query.Row) error {
		row, emitErr = base, nil
		// An indexed property first: the keys in sorted order until an
		// index handles one, then the label index, then the full scan.
		for _, k := range keys {
			if handled, err := src.IndexedNodes(s.Label, k, s.PropEq[k], send); err != nil || handled {
				return firstErr(err, emitErr)
			}
		}
		if s.Label != "" {
			if handled, err := src.IndexedNodes(s.Label, "", model.Null(), send); err != nil || handled {
				return firstErr(err, emitErr)
			}
		}
		return firstErr(src.Nodes(send), emitErr)
	}
	if s.Child == nil {
		return scanInto(make(query.Row, len(s.sc.Names)))
	}
	return s.Child.Run(src, scanInto)
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// String implements Op.
func (s *NodeScan) String() string {
	out := fmt.Sprintf("NodeScan(%s:%s %v)", s.Var, s.Label, s.PropEq)
	if s.Child != nil {
		out = s.Child.String() + " -> " + out
	}
	return out
}

// --- Expand ---

// Expand walks edges from the node bound to FromVar. If ToVar is unbound it
// binds the far node; if bound, it checks connectivity (join). EdgeVar may
// be empty. It binds ids, and loads a record only for the read-set.
type Expand struct {
	Child   Op
	FromVar string
	EdgeVar string
	ToVar   string
	Label   string
	Dir     model.Direction

	stage
	from, to, edge int // slots; from/edge -1 when absent
	toBound        bool
}

// Run implements Op.
func (x *Expand) Run(src Source, emit func(query.Row) error) error {
	var buf []model.NeighborID
	loadTo := !x.toBound && x.sc.Read[x.to]
	loadEdge := x.edge >= 0 && x.sc.Read[x.edge]
	var row query.Row
	visit := func(e model.Edge, n model.Node, records bool) (err error) {
		if x.toBound {
			if b := row[x.to]; b.Kind != query.EntryNode || b.Node.ID != n.ID {
				return nil
			}
		} else {
			if loadTo && !records {
				if n, err = src.Node(n.ID); err != nil {
					return err
				}
			}
			row[x.to] = query.NodeEntry(n)
		}
		if x.edge >= 0 {
			if loadEdge && !records {
				if e, err = src.Edge(e.ID); err != nil {
					return err
				}
			}
			row[x.edge] = query.EdgeEntry(e)
		}
		return emit(row)
	}
	return x.Child.Run(src, func(r query.Row) error {
		if x.from < 0 || r[x.from].Kind != query.EntryNode {
			return fmt.Errorf("expand: %q is not a bound node", x.FromVar)
		}
		row = r
		return eachNeighbor(src, &buf, r[x.from].Node.ID, x.Dir, x.Label, visit)
	})
}

// String implements Op.
func (x *Expand) String() string {
	return fmt.Sprintf("%s -> Expand(%s-[%s:%s]-%s %s)", x.Child, x.FromVar, x.EdgeVar, x.Label, x.ToVar, x.Dir)
}

// --- Filter ---

// Filter keeps rows whose condition evaluates to true.
type Filter struct {
	Child Op
	Cond  query.Expr

	stage
	cond query.Expr // Cond, bound
}

// Run implements Op.
func (f *Filter) Run(src Source, emit func(query.Row) error) error {
	return f.Child.Run(src, func(row query.Row) error {
		v, err := f.cond.Eval(row)
		if err != nil {
			return err
		}
		if b, ok := v.AsBool(); ok && b {
			return emit(row)
		}
		return nil
	})
}

// String implements Op.
func (f *Filter) String() string { return fmt.Sprintf("%s -> Filter(%s)", f.Child, f.Cond) }

// --- Project ---

// Item is one output column.
type Item struct {
	Name string
	Expr query.Expr
}

// Project reduces rows to named value columns: a new stage, a slot per item.
type Project struct {
	Child Op
	Items []Item

	stage
	exprs []query.Expr
}

// Run implements Op.
func (p *Project) Run(src Source, emit func(query.Row) error) error {
	out := make(query.Row, len(p.exprs))
	return p.Child.Run(src, func(row query.Row) error {
		for i, ex := range p.exprs {
			v, err := ex.Eval(row)
			if err != nil {
				return err
			}
			out[i] = query.ValueEntry(v)
		}
		return emit(out)
	})
}

// String implements Op.
func (p *Project) String() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.Name
	}
	return fmt.Sprintf("%s -> Project(%s)", p.Child, strings.Join(parts, ", "))
}

// --- Aggregate ---

// AggItem is one aggregate output column.
type AggItem struct {
	Name string
	Fn   string // count sum avg min max
	Arg  query.Expr
}

// Aggregate groups rows by the GroupBy items and folds the aggregates: a
// new stage, the group keys' slots then the aggregates'.
type Aggregate struct {
	Child   Op
	GroupBy []Item
	Aggs    []AggItem

	stage
	keys []query.Expr
	args []query.Expr // nil entry: no argument
	fns  []string     // Aggs' function names, lower-cased once
}

type aggState struct {
	keyVals []model.Value
	count   int
	sums    []float64
	mins    []model.Value
	maxs    []model.Value
	counts  []int
}

func (a *Aggregate) newState(keyVals []model.Value) *aggState {
	n := len(a.Aggs)
	return &aggState{
		keyVals: keyVals,
		sums:    make([]float64, n),
		mins:    make([]model.Value, n),
		maxs:    make([]model.Value, n),
		counts:  make([]int, n),
	}
}

// Run implements Op.
func (a *Aggregate) Run(src Source, emit func(query.Row) error) error {
	groups := map[string]*aggState{}
	var order []*aggState
	var st *aggState // the current row's group
	if len(a.keys) == 0 {
		// A global aggregate is one state, there from the start: it needs
		// no key per row, and over zero rows it still yields one output row.
		st = a.newState(nil)
		order = append(order, st)
	}
	err := a.Child.Run(src, func(row query.Row) error {
		if len(a.keys) > 0 {
			keyVals := make([]model.Value, len(a.keys))
			var kb []byte
			for i, g := range a.keys {
				v, err := g.Eval(row)
				if err != nil {
					return err
				}
				keyVals[i] = v
				kb = v.EncodeKey(kb)
				kb = append(kb, 0xFF)
			}
			if st = groups[string(kb)]; st == nil {
				st = a.newState(keyVals)
				groups[string(kb)] = st
				order = append(order, st)
			}
		}
		st.count++
		for i, arg := range a.args {
			var v model.Value
			if arg != nil {
				var err error
				v, err = arg.Eval(row)
				if err != nil {
					return err
				}
			}
			if v.IsNull() && a.fns[i] != "count" {
				continue
			}
			st.counts[i]++
			if f, ok := v.AsFloat(); ok {
				st.sums[i] += f
			}
			if st.mins[i].IsNull() || v.Compare(st.mins[i]) < 0 {
				st.mins[i] = v
			}
			if st.maxs[i].IsNull() || v.Compare(st.maxs[i]) > 0 {
				st.maxs[i] = v
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out := make(query.Row, len(a.keys)+len(a.fns))
	for _, st := range order {
		for i, v := range st.keyVals {
			out[i] = query.ValueEntry(v)
		}
		for i, fn := range a.fns {
			var v model.Value
			switch fn {
			case "count":
				v = model.Int(int64(st.count))
			case "sum":
				v = model.Float(st.sums[i])
			case "avg":
				if st.counts[i] == 0 {
					v = model.Null()
				} else {
					v = model.Float(st.sums[i] / float64(st.counts[i]))
				}
			case "min":
				v = st.mins[i]
			case "max":
				v = st.maxs[i]
			default:
				return fmt.Errorf("unknown aggregate %q", a.Aggs[i].Fn)
			}
			out[len(a.keys)+i] = query.ValueEntry(v)
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

// String implements Op.
func (a *Aggregate) String() string {
	return fmt.Sprintf("%s -> Aggregate(%d aggs)", a.Child, len(a.Aggs))
}

// --- OrderBy / Limit / Distinct ---

// OrderKey is one sort key.
type OrderKey struct {
	Expr query.Expr
	Desc bool
}

// OrderBy materializes and sorts rows; it keeps them, so it copies them.
type OrderBy struct {
	Child Op
	Keys  []OrderKey

	stage
	keys []query.Expr
}

// Run implements Op.
func (o *OrderBy) Run(src Source, emit func(query.Row) error) error {
	type sortable struct {
		row  query.Row
		keys []model.Value
	}
	var rows []sortable
	err := o.Child.Run(src, func(row query.Row) error {
		s := sortable{row: append(query.Row(nil), row...), keys: make([]model.Value, len(o.keys))}
		for i, k := range o.keys {
			v, err := k.Eval(row)
			if err != nil {
				return err
			}
			s.keys[i] = v
		}
		rows = append(rows, s)
		return nil
	})
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range o.Keys {
			c := rows[i].keys[k].Compare(rows[j].keys[k])
			if c == 0 {
				continue
			}
			if o.Keys[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for _, s := range rows {
		if err := emit(s.row); err != nil {
			return err
		}
	}
	return nil
}

// String implements Op.
func (o *OrderBy) String() string { return fmt.Sprintf("%s -> OrderBy(%d keys)", o.Child, len(o.Keys)) }

// Limit passes through at most N rows after skipping Offset.
type Limit struct {
	Child  Op
	N      int
	Offset int

	stage
}

// Run implements Op.
func (l *Limit) Run(src Source, emit func(query.Row) error) error {
	seen, sent := 0, 0
	err := l.Child.Run(src, func(row query.Row) error {
		seen++
		if seen <= l.Offset {
			return nil
		}
		if l.N >= 0 && sent >= l.N {
			return errStop
		}
		sent++
		if err := emit(row); err != nil {
			return err
		}
		if l.N >= 0 && sent >= l.N {
			return errStop
		}
		return nil
	})
	if err == errStop {
		return nil
	}
	return err
}

// String implements Op.
func (l *Limit) String() string { return fmt.Sprintf("%s -> Limit(%d, %d)", l.Child, l.Offset, l.N) }

// Distinct suppresses duplicate rows (by scalar encoding of all bindings).
type Distinct struct {
	Child Op

	stage
	slots []int
}

// Run implements Op.
func (d *Distinct) Run(src Source, emit func(query.Row) error) error {
	seen := map[string]bool{}
	var kb []byte
	return d.Child.Run(src, func(row query.Row) error {
		kb = kb[:0]
		for _, slot := range d.slots {
			kb = row[slot].Scalar().EncodeKey(kb)
			kb = append(kb, 0xFF)
		}
		if seen[string(kb)] {
			return nil
		}
		seen[string(kb)] = true
		return emit(row)
	})
}

// String implements Op.
func (d *Distinct) String() string { return d.Child.String() + " -> Distinct" }
