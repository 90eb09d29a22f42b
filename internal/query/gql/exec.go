package gql

import (
	"context"
	"errors"
	"fmt"

	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query"
	"gdbm/internal/query/plan"
)

// Mutator is the engine surface write statements need.
type Mutator interface {
	plan.Source
	AddNode(label string, props model.Properties) (model.NodeID, error)
	AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error)
	RemoveNode(id model.NodeID) error
	RemoveEdge(id model.EdgeID) error
	SetNodeProp(id model.NodeID, key string, v model.Value) error
	SetEdgeProp(id model.EdgeID, key string, v model.Value) error
}

// parsedKey is the context key under which WithParsed hands a statement
// to ExecStreamCtx.
type parsedKey struct{}

// parsed pairs a statement with the exact input it was parsed from.
type parsed struct {
	input string
	st    *Statement
}

// WithParsed returns a ctx carrying st as the parse of input, for a caller
// that parsed the statement already (the server does, to pick its lock).
// ExecStreamCtx under that ctx runs st when given exactly input and parses
// any other input itself.
func WithParsed(ctx context.Context, input string, st *Statement) context.Context {
	return context.WithValue(ctx, parsedKey{}, parsed{input: input, st: st})
}

// parse returns the statement ctx carries for input, or parses input.
func parse(ctx context.Context, input string) (*Statement, error) {
	if p, ok := ctx.Value(parsedKey{}).(parsed); ok && p.input == input {
		return p.st, nil
	}
	return Parse(input)
}

// ExecStreamCtx parses and runs one statement under ctx, applying writes
// through m and delivering the result into sink; a statement handed over
// by WithParsed is not parsed again. Read statements stream rows as the
// operator tree produces them; write statements (whose result is a counter
// row that only exists after the last mutation) execute fully and replay.
// When ctx carries an obs.Trace, parsing and execution are recorded as
// "parse" and "exec" spans; tracing never changes the answer.
func ExecStreamCtx(ctx context.Context, input string, m Mutator, sink plan.Sink) error {
	tr := obs.FromContext(ctx)
	endParse := tr.StartSpan("parse")
	st, err := parse(ctx, input)
	endParse()
	if err != nil {
		return err
	}
	defer tr.StartSpan("exec")()
	if st.ReadOnly() {
		if st.Match == nil {
			return plan.Replay(&plan.Result{}, sink)
		}
		src := plan.WithCancel(ctx, m)
		op, err := plan.CompileFor(st.Match, src)
		if err != nil {
			return err
		}
		return plan.Stream(op, src, st.Columns(), sink)
	}
	res, err := execWrite(ctx, st, m)
	if err != nil {
		return err
	}
	return plan.Replay(res, sink)
}

// execWrite applies a statement with write clauses. The returned result
// carries the counters in the "nodes", "edges", "set", "deleted" columns.
func execWrite(ctx context.Context, st *Statement, m Mutator) (*plan.Result, error) {
	// Materialize binding rows first so mutation does not race iteration.
	// The write clauses resolve their variables against the scope of the
	// rows the match emits, extended by the nodes CREATE binds; binding SET's
	// expressions before the tree runs puts what they read in its read-set.
	sc := &query.Scope{}
	var op plan.Op
	if st.Match != nil {
		spec := *st.Match
		spec.Return, spec.Aggs, spec.GroupBy = nil, nil, nil
		var err error
		if op, err = plan.CompileFor(&spec, m); err != nil {
			return nil, err
		}
		sc = plan.ScopeOf(op)
	}
	for _, cn := range st.CreateNodes {
		if cn.Var != "" {
			sc.Add(cn.Var)
		}
	}
	setExprs := make([]query.Expr, len(st.Sets))
	for i, set := range st.Sets {
		setExprs[i] = query.Bind(set.Expr, sc)
	}
	entry := func(row query.Row, name string) (e query.Entry, ok bool) {
		if slot, ok := sc.Slot(name); ok {
			return row[slot], true
		}
		return e, false
	}
	rows := []query.Row{make(query.Row, len(sc.Names))}
	if op != nil {
		rows = nil
		if err := op.Run(plan.WithCancel(ctx, m), func(r query.Row) error {
			rows = append(rows, append(query.Row(nil), r...))
			return nil
		}); err != nil {
			return nil, err
		}
	}

	var nodesCreated, edgesCreated, propsSet, deleted int
	for _, row := range rows {
		// Writes apply row-by-row, so a deadline can stop a large mutation
		// between rows (already-applied writes stay applied, as documented
		// in the overload contract).
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Creates: nodes first so edge endpoints resolve.
		for _, cn := range st.CreateNodes {
			id, err := m.AddNode(cn.Label, cn.Props)
			if err != nil {
				return nil, err
			}
			nodesCreated++
			if cn.Var != "" {
				n, err := m.Node(id)
				if err != nil {
					return nil, err
				}
				slot, _ := sc.Slot(cn.Var)
				row[slot] = query.NodeEntry(n)
			}
		}
		for _, ce := range st.CreateEdges {
			from, ok := entry(row, ce.FromVar)
			if !ok || from.Kind != query.EntryNode {
				return nil, fmt.Errorf("gql: CREATE edge source %q is not a bound node", ce.FromVar)
			}
			to, ok := entry(row, ce.ToVar)
			if !ok || to.Kind != query.EntryNode {
				return nil, fmt.Errorf("gql: CREATE edge target %q is not a bound node", ce.ToVar)
			}
			if _, err := m.AddEdge(ce.Label, from.Node.ID, to.Node.ID, ce.Props); err != nil {
				return nil, err
			}
			edgesCreated++
		}
		for i, set := range st.Sets {
			ent, ok := entry(row, set.Var)
			if !ok {
				return nil, fmt.Errorf("gql: SET target %q is unbound", set.Var)
			}
			v, err := setExprs[i].Eval(row)
			if err != nil {
				return nil, err
			}
			switch ent.Kind {
			case query.EntryNode:
				if err := m.SetNodeProp(ent.Node.ID, set.Prop, v); err != nil {
					return nil, err
				}
			case query.EntryEdge:
				if err := m.SetEdgeProp(ent.Edge.ID, set.Prop, v); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("gql: SET target %q is not an entity", set.Var)
			}
			propsSet++
		}
		for _, dv := range st.Deletes {
			ent, ok := entry(row, dv)
			if !ok {
				return nil, fmt.Errorf("gql: DELETE target %q is unbound", dv)
			}
			switch ent.Kind {
			case query.EntryNode:
				if st.Detach {
					// Remove incident edges first.
					var eids []model.EdgeID
					if err := m.Neighbors(ent.Node.ID, model.Both, func(e model.Edge, _ model.Node) bool {
						eids = append(eids, e.ID)
						return true
					}); err != nil {
						return nil, err
					}
					for _, eid := range eids {
						if err := m.RemoveEdge(eid); err != nil && !isNotFound(err) {
							return nil, err
						}
					}
				}
				if err := m.RemoveNode(ent.Node.ID); err != nil && !isNotFound(err) {
					return nil, err
				}
			case query.EntryEdge:
				if err := m.RemoveEdge(ent.Edge.ID); err != nil && !isNotFound(err) {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("gql: DELETE target %q is not an entity", dv)
			}
			deleted++
		}
	}
	return &plan.Result{
		Cols: []string{"nodes", "edges", "set", "deleted"},
		Rows: [][]model.Value{{
			model.Int(int64(nodesCreated)),
			model.Int(int64(edgesCreated)),
			model.Int(int64(propsSet)),
			model.Int(int64(deleted)),
		}},
	}, nil
}

func isNotFound(err error) bool { return errors.Is(err, model.ErrNotFound) }
