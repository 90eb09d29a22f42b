// Package gsql implements the SQL-based query language with special graph
// instructions that the survey attributes to G-Store and Sones. It covers
// all three database languages of Table II:
//
// Data Definition Language:
//
//	CREATE VERTEX TYPE Person (name STRING REQUIRED UNIQUE, age INT)
//	CREATE EDGE TYPE knows FROM Person TO Person
//	DROP VERTEX TYPE Person
//	DROP EDGE TYPE knows
//
// Data Manipulation Language:
//
//	INSERT VERTEX Person (name = 'ada', age = 36)
//	INSERT EDGE knows FROM 1 TO 2 (since = 2019)
//	UPDATE VERTEX 3 SET age = 37
//	DELETE VERTEX 3
//	DELETE EDGE 7
//
// Query Language, including the graph-specific instructions:
//
//	SELECT name, age FROM Person WHERE age > 30 ORDER BY age DESC LIMIT 5
//	SELECT PATH FROM 1 TO 9                 -- shortest path
//	SELECT PATH FROM 1 TO 9 MAXLEN 4        -- fixed-length paths
//	SELECT NEIGHBORS OF 1 DEPTH 2           -- k-neighborhood
//	SELECT REACH FROM 1 TO 9                -- reachability test
package gsql

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"gdbm/internal/algo"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query"
	"gdbm/internal/query/plan"
)

// Engine is the surface gsql executes against: graph reads and writes plus a
// schema for the DDL.
type Engine interface {
	plan.Source
	Schema() *model.Schema
	AddNode(label string, props model.Properties) (model.NodeID, error)
	AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error)
	RemoveNode(id model.NodeID) error
	RemoveEdge(id model.EdgeID) error
	SetNodeProp(id model.NodeID, key string, v model.Value) error
}

// Result mirrors plan.Result.
type Result = plan.Result

// ExecStreamCtx parses and runs one gsql statement under ctx, delivering
// the result into sink. The tabular SELECT form streams rows as the plan
// produces them; graph instructions and DML/DDL (whose single result row
// exists whole) execute fully and replay. gsql parses and executes in one
// interleaved pass, so a trace carried by ctx records the whole statement
// as a single "exec" span; tracing never changes the answer.
func ExecStreamCtx(ctx context.Context, input string, e Engine, sink plan.Sink) error {
	defer obs.FromContext(ctx).StartSpan("exec")()
	l := query.NewLexer(input)
	t, err := l.Peek()
	if err != nil {
		return err
	}
	if t.Kind != query.TokIdent {
		return fmt.Errorf("gsql: expected a statement keyword")
	}
	var res *Result
	switch strings.ToUpper(t.Text) {
	case "CREATE":
		res, err = execCreate(l, e)
	case "DROP":
		res, err = execDrop(l, e)
	case "INSERT":
		res, err = execInsert(l, e)
	case "UPDATE":
		res, err = execUpdate(l, e)
	case "DELETE":
		res, err = execDelete(l, e)
	case "SELECT":
		res, err = execSelect(ctx, l, e, sink)
		if err == nil && res == nil {
			return nil // the tabular path already streamed into sink
		}
	default:
		return fmt.Errorf("gsql: unknown statement %q", t.Text)
	}
	if err != nil {
		return err
	}
	return plan.Replay(res, sink)
}

func one(cols []string, vals ...model.Value) *Result {
	return &Result{Cols: cols, Rows: [][]model.Value{vals}}
}

func kindOf(name string) (model.Kind, error) {
	switch strings.ToUpper(name) {
	case "STRING", "TEXT":
		return model.KindString, nil
	case "INT", "INTEGER":
		return model.KindInt, nil
	case "FLOAT", "DOUBLE":
		return model.KindFloat, nil
	case "BOOL", "BOOLEAN":
		return model.KindBool, nil
	}
	return 0, fmt.Errorf("gsql: unknown type %q", name)
}

// --- DDL ---

func execCreate(l *query.Lexer, e Engine) (*Result, error) {
	l.Next() // CREATE
	switch {
	case l.AcceptIdent("VERTEX"):
		if err := l.ExpectIdent("TYPE"); err != nil {
			return nil, err
		}
		nt, err := l.Next()
		if err != nil {
			return nil, err
		}
		t := model.NodeType{Name: nt.Text}
		if l.AcceptPunct("(") {
			props, err := parsePropDecls(l)
			if err != nil {
				return nil, err
			}
			t.Properties = props
		}
		if err := e.Schema().DefineNodeType(t); err != nil {
			return nil, err
		}
		return one([]string{"ok"}, model.Str("vertex type "+t.Name)), nil
	case l.AcceptIdent("EDGE"):
		if err := l.ExpectIdent("TYPE"); err != nil {
			return nil, err
		}
		nt, err := l.Next()
		if err != nil {
			return nil, err
		}
		t := model.RelationType{Name: nt.Text}
		if l.AcceptIdent("FROM") {
			ft, err := l.Next()
			if err != nil {
				return nil, err
			}
			t.From = ft.Text
			if err := l.ExpectIdent("TO"); err != nil {
				return nil, err
			}
			tt, err := l.Next()
			if err != nil {
				return nil, err
			}
			t.To = tt.Text
		}
		if l.AcceptPunct("(") {
			props, err := parsePropDecls(l)
			if err != nil {
				return nil, err
			}
			t.Properties = props
		}
		if err := e.Schema().DefineRelationType(t); err != nil {
			return nil, err
		}
		return one([]string{"ok"}, model.Str("edge type "+t.Name)), nil
	}
	return nil, fmt.Errorf("gsql: CREATE expects VERTEX TYPE or EDGE TYPE")
}

func parsePropDecls(l *query.Lexer) ([]model.PropertyType, error) {
	var out []model.PropertyType
	for {
		nt, err := l.Next()
		if err != nil {
			return nil, err
		}
		if nt.Kind != query.TokIdent {
			return nil, fmt.Errorf("gsql: expected a property name, got %q", nt.Text)
		}
		kt, err := l.Next()
		if err != nil {
			return nil, err
		}
		kind, err := kindOf(kt.Text)
		if err != nil {
			return nil, err
		}
		pt := model.PropertyType{Name: nt.Text, Kind: kind}
		for {
			if l.AcceptIdent("REQUIRED") {
				pt.Required = true
				continue
			}
			if l.AcceptIdent("UNIQUE") {
				pt.Unique = true
				continue
			}
			break
		}
		out = append(out, pt)
		if l.AcceptPunct(",") {
			continue
		}
		if err := l.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func execDrop(l *query.Lexer, e Engine) (*Result, error) {
	l.Next() // DROP
	isVertex := l.AcceptIdent("VERTEX")
	if !isVertex {
		if !l.AcceptIdent("EDGE") {
			return nil, fmt.Errorf("gsql: DROP expects VERTEX TYPE or EDGE TYPE")
		}
	}
	if err := l.ExpectIdent("TYPE"); err != nil {
		return nil, err
	}
	nt, err := l.Next()
	if err != nil {
		return nil, err
	}
	if isVertex {
		err = e.Schema().DropNodeType(nt.Text)
	} else {
		err = e.Schema().DropRelationType(nt.Text)
	}
	if err != nil {
		return nil, err
	}
	return one([]string{"ok"}, model.Str("dropped "+nt.Text)), nil
}

// --- DML ---

func parseAssignments(l *query.Lexer) (model.Properties, error) {
	props := model.Properties{}
	if l.AcceptPunct(")") {
		return props, nil
	}
	for {
		nt, err := l.Next()
		if err != nil {
			return nil, err
		}
		if err := l.ExpectPunct("="); err != nil {
			return nil, err
		}
		ex, err := query.ParseExpr(l)
		if err != nil {
			return nil, err
		}
		v, err := ex.Eval(query.Row{})
		if err != nil {
			return nil, fmt.Errorf("gsql: %q must be a constant: %w", nt.Text, err)
		}
		props[nt.Text] = v
		if l.AcceptPunct(",") {
			continue
		}
		if err := l.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return props, nil
	}
}

func execInsert(l *query.Lexer, e Engine) (*Result, error) {
	l.Next() // INSERT
	switch {
	case l.AcceptIdent("VERTEX"):
		lt, err := l.Next()
		if err != nil {
			return nil, err
		}
		var props model.Properties
		if l.AcceptPunct("(") {
			props, err = parseAssignments(l)
			if err != nil {
				return nil, err
			}
		}
		id, err := e.AddNode(lt.Text, props)
		if err != nil {
			return nil, err
		}
		return one([]string{"id"}, model.Int(int64(id))), nil
	case l.AcceptIdent("EDGE"):
		lt, err := l.Next()
		if err != nil {
			return nil, err
		}
		if err := l.ExpectIdent("FROM"); err != nil {
			return nil, err
		}
		from, err := parseID(l)
		if err != nil {
			return nil, err
		}
		if err := l.ExpectIdent("TO"); err != nil {
			return nil, err
		}
		to, err := parseID(l)
		if err != nil {
			return nil, err
		}
		var props model.Properties
		if l.AcceptPunct("(") {
			props, err = parseAssignments(l)
			if err != nil {
				return nil, err
			}
		}
		id, err := e.AddEdge(lt.Text, model.NodeID(from), model.NodeID(to), props)
		if err != nil {
			return nil, err
		}
		return one([]string{"id"}, model.Int(int64(id))), nil
	}
	return nil, fmt.Errorf("gsql: INSERT expects VERTEX or EDGE")
}

func parseID(l *query.Lexer) (uint64, error) {
	t, err := l.Next()
	if err != nil {
		return 0, err
	}
	if t.Kind != query.TokNumber {
		return 0, fmt.Errorf("gsql: expected an id, got %q", t.Text)
	}
	return strconv.ParseUint(t.Text, 10, 64)
}

func execUpdate(l *query.Lexer, e Engine) (*Result, error) {
	l.Next() // UPDATE
	if !l.AcceptIdent("VERTEX") {
		return nil, fmt.Errorf("gsql: UPDATE expects VERTEX")
	}
	id, err := parseID(l)
	if err != nil {
		return nil, err
	}
	if err := l.ExpectIdent("SET"); err != nil {
		return nil, err
	}
	n := 0
	for {
		nt, err := l.Next()
		if err != nil {
			return nil, err
		}
		if err := l.ExpectPunct("="); err != nil {
			return nil, err
		}
		ex, err := query.ParseExpr(l)
		if err != nil {
			return nil, err
		}
		v, err := ex.Eval(query.Row{})
		if err != nil {
			return nil, err
		}
		if err := e.SetNodeProp(model.NodeID(id), nt.Text, v); err != nil {
			return nil, err
		}
		n++
		if !l.AcceptPunct(",") {
			break
		}
	}
	return one([]string{"set"}, model.Int(int64(n))), nil
}

func execDelete(l *query.Lexer, e Engine) (*Result, error) {
	l.Next() // DELETE
	switch {
	case l.AcceptIdent("VERTEX"):
		id, err := parseID(l)
		if err != nil {
			return nil, err
		}
		if err := e.RemoveNode(model.NodeID(id)); err != nil {
			return nil, err
		}
		return one([]string{"deleted"}, model.Int(1)), nil
	case l.AcceptIdent("EDGE"):
		id, err := parseID(l)
		if err != nil {
			return nil, err
		}
		if err := e.RemoveEdge(model.EdgeID(id)); err != nil {
			return nil, err
		}
		return one([]string{"deleted"}, model.Int(1)), nil
	}
	return nil, fmt.Errorf("gsql: DELETE expects VERTEX or EDGE")
}

// --- queries ---

// execSelect runs a SELECT. The tabular form streams its rows into sink
// through plan.Stream and returns a nil Result; the instruction forms
// (ORDER, SIZE, PATH, ...) whose single row exists whole return a
// materialized Result for the caller to replay.
func execSelect(ctx context.Context, l *query.Lexer, e Engine, sink plan.Sink) (*Result, error) {
	l.Next() // SELECT
	// Graph instructions run the algo kernels with the request context, so a
	// deadline interrupts the traversal rather than the response alone.
	if l.AcceptIdent("PATH") {
		return execSelectPath(ctx, l, e)
	}
	if l.AcceptIdent("NEIGHBORS") {
		return execSelectNeighbors(ctx, l, e)
	}
	if l.AcceptIdent("REACH") {
		return execSelectReach(ctx, l, e)
	}
	if l.AcceptIdent("ORDER") {
		// SELECT ORDER — the number of vertices (a summarization function
		// of Section IV.4).
		return one([]string{"order"}, model.Int(int64(e.Order()))), nil
	}
	if l.AcceptIdent("SIZE") {
		return one([]string{"size"}, model.Int(int64(e.Size()))), nil
	}
	if l.AcceptIdent("DEGREE") {
		return execSelectDegree(l, e)
	}
	if l.AcceptIdent("DIAMETER") {
		d, err := algo.DiameterCtx(ctx, e, model.Both)
		if err != nil {
			return nil, err
		}
		return one([]string{"diameter"}, model.Int(int64(d))), nil
	}
	if l.AcceptIdent("DISTANCE") {
		return execSelectDistance(ctx, l, e)
	}
	// Tabular SELECT over one vertex type.
	spec := plan.MatchSpec{Limit: -1}
	var cols []string
	distinct := l.AcceptIdent("DISTINCT")
	spec.Distinct = distinct
	star := false
	type retItem struct {
		name string
		expr query.Expr
		agg  string
	}
	var items []retItem
	for {
		t, err := l.Peek()
		if err != nil {
			return nil, err
		}
		if t.Kind == query.TokPunct && t.Text == "*" {
			l.Next()
			star = true
		} else {
			ex, err := query.ParseExpr(l)
			if err != nil {
				return nil, err
			}
			name := ex.String()
			if l.AcceptIdent("AS") {
				at, err := l.Next()
				if err != nil {
					return nil, err
				}
				name = at.Text
			}
			if call, ok := ex.(query.Call); ok && query.AggFuncs[strings.ToLower(call.Fn)] {
				var arg query.Expr
				if len(call.Args) == 1 {
					if lit, isLit := call.Args[0].(query.Lit); !isLit || lit.V.String() != "*" {
						arg = rewriteBareToRow(call.Args[0])
					}
				}
				spec.Aggs = append(spec.Aggs, plan.AggItem{Name: name, Fn: call.Fn, Arg: arg})
				cols = append(cols, name)
				items = append(items, retItem{name: name, agg: call.Fn})
			} else {
				ex = rewriteBareToRow(ex)
				spec.Return = append(spec.Return, plan.Item{Name: name, Expr: ex})
				cols = append(cols, name)
				items = append(items, retItem{name: name, expr: ex})
			}
		}
		if !l.AcceptPunct(",") {
			break
		}
	}
	if err := l.ExpectIdent("FROM"); err != nil {
		return nil, err
	}
	lt, err := l.Next()
	if err != nil {
		return nil, err
	}
	if lt.Kind != query.TokIdent {
		return nil, fmt.Errorf("gsql: FROM expects a vertex type name")
	}
	label := lt.Text
	if label == "_any" {
		label = ""
	}
	spec.Nodes = []plan.NodePat{{Var: "row", Label: label}}
	if star {
		// Expand * into the declared schema columns for the type.
		nt, ok := e.Schema().NodeType(label)
		if !ok {
			return nil, fmt.Errorf("gsql: SELECT * requires a declared vertex type, %q is unknown", label)
		}
		for _, p := range nt.Properties {
			spec.Return = append(spec.Return, plan.Item{
				Name: p.Name, Expr: query.Var{Name: "row", Prop: p.Name},
			})
			cols = append(cols, p.Name)
		}
	}
	if l.AcceptIdent("WHERE") {
		ex, err := query.ParseExpr(l)
		if err != nil {
			return nil, err
		}
		spec.Where = rewriteBareToRow(ex)
	}
	if l.AcceptIdent("GROUP") {
		if err := l.ExpectIdent("BY"); err != nil {
			return nil, err
		}
		for {
			gt, err := l.Next()
			if err != nil {
				return nil, err
			}
			spec.GroupBy = append(spec.GroupBy, plan.Item{
				Name: gt.Text, Expr: query.Var{Name: "row", Prop: gt.Text},
			})
			if !l.AcceptPunct(",") {
				break
			}
		}
	} else if len(spec.Aggs) > 0 && len(spec.Return) > 0 {
		// Non-aggregated columns become implicit group keys.
		spec.GroupBy = spec.Return
		spec.Return = nil
	}
	if l.AcceptIdent("ORDER") {
		if err := l.ExpectIdent("BY"); err != nil {
			return nil, err
		}
		for {
			ex, err := query.ParseExpr(l)
			if err != nil {
				return nil, err
			}
			// ORDER BY runs after projection/aggregation: bare column
			// names refer to output columns when projected, otherwise to
			// properties of the scanned row.
			if v, ok := ex.(query.Var); ok && v.Prop == "" {
				ex = colOrRowProp{name: v.Name}
			} else {
				ex = rewriteBareToRow(ex)
			}
			desc := false
			if l.AcceptIdent("DESC") {
				desc = true
			} else {
				l.AcceptIdent("ASC")
			}
			spec.OrderBy = append(spec.OrderBy, plan.OrderKey{Expr: ex, Desc: desc})
			if !l.AcceptPunct(",") {
				break
			}
		}
	}
	if l.AcceptIdent("LIMIT") {
		n, err := l.Count()
		if err != nil {
			return nil, fmt.Errorf("gsql: LIMIT: %w", err)
		}
		spec.Limit = n
	}
	op, err := plan.CompileFor(&spec, e)
	if err != nil {
		return nil, err
	}
	return nil, plan.Stream(op, plan.WithCancel(ctx, e), cols, sink)
}

// colOrRowProp resolves an ORDER BY key: first as an output column of the
// projection, then as a property of the implicit "row" binding.
type colOrRowProp struct{ name string }

// Bind implements query.Binder: whichever of the two the scope holds.
func (c colOrRowProp) Bind(s *query.Scope) query.Expr {
	if _, ok := s.Slot(c.name); ok {
		return query.Bind(query.Var{Name: c.name}, s)
	}
	if _, ok := s.Slot("row"); ok {
		return query.Bind(query.Var{Name: "row", Prop: c.name}, s)
	}
	return c
}

// Eval implements query.Expr for the key left unbound: neither is in scope.
func (c colOrRowProp) Eval(query.Row) (model.Value, error) {
	return model.Null(), fmt.Errorf("gsql: ORDER BY column %q is not in the result", c.name)
}

// String implements query.Expr.
func (c colOrRowProp) String() string { return c.name }

// rewriteBareToRow maps bare identifiers (column names) to properties of the
// implicit "row" binding, and fixes aggregate ORDER BY aliases.
func rewriteBareToRow(ex query.Expr) query.Expr {
	return query.Rewrite(ex, func(leaf query.Expr) query.Expr {
		if x, ok := leaf.(query.Var); ok && x.Prop == "" && x.Name != "row" {
			return query.Var{Name: "row", Prop: x.Name}
		}
		return leaf
	})
}

// execSelectPath implements SELECT PATH FROM a TO b [MAXLEN n].
func execSelectPath(ctx context.Context, l *query.Lexer, e Engine) (*Result, error) {
	if err := l.ExpectIdent("FROM"); err != nil {
		return nil, err
	}
	from, err := parseID(l)
	if err != nil {
		return nil, err
	}
	if err := l.ExpectIdent("TO"); err != nil {
		return nil, err
	}
	to, err := parseID(l)
	if err != nil {
		return nil, err
	}
	if l.AcceptIdent("MAXLEN") {
		n, err := l.Count()
		if err != nil {
			return nil, fmt.Errorf("gsql: MAXLEN: %w", err)
		}
		paths, err := algo.FixedLengthPathsCtx(ctx, e, model.NodeID(from), model.NodeID(to), n, model.Out, 100)
		if err != nil {
			return nil, err
		}
		res := &Result{Cols: []string{"path", "length"}}
		for _, p := range paths {
			res.Rows = append(res.Rows, []model.Value{model.Str(pathString(p)), model.Int(int64(p.Len()))})
		}
		return res, nil
	}
	p, err := algo.ShortestPathCtx(ctx, e, model.NodeID(from), model.NodeID(to), model.Out)
	if err != nil {
		return nil, err
	}
	return one([]string{"path", "length"}, model.Str(pathString(p)), model.Int(int64(p.Len()))), nil
}

func pathString(p algo.Path) string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = strconv.FormatUint(uint64(n), 10)
	}
	return strings.Join(parts, "->")
}

// execSelectNeighbors implements SELECT NEIGHBORS OF id [DEPTH k].
func execSelectNeighbors(ctx context.Context, l *query.Lexer, e Engine) (*Result, error) {
	if err := l.ExpectIdent("OF"); err != nil {
		return nil, err
	}
	id, err := parseID(l)
	if err != nil {
		return nil, err
	}
	depth := 1
	if l.AcceptIdent("DEPTH") {
		if depth, err = l.Count(); err != nil {
			return nil, fmt.Errorf("gsql: DEPTH: %w", err)
		}
	}
	ids, err := algo.NeighborhoodCtx(ctx, e, model.NodeID(id), depth, model.Both)
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: []string{"id"}}
	for _, n := range ids {
		res.Rows = append(res.Rows, []model.Value{model.Int(int64(n))})
	}
	return res, nil
}

// execSelectDegree implements SELECT DEGREE OF id, and with no OF clause
// the min/max/avg degree statistics of the whole graph.
func execSelectDegree(l *query.Lexer, e Engine) (*Result, error) {
	if l.AcceptIdent("OF") {
		id, err := parseID(l)
		if err != nil {
			return nil, err
		}
		d, err := e.Degree(model.NodeID(id), model.Both)
		if err != nil {
			return nil, err
		}
		return one([]string{"degree"}, model.Int(int64(d))), nil
	}
	st, err := algo.Degrees(e, model.Both)
	if err != nil {
		return nil, err
	}
	return one([]string{"min", "max", "avg"},
		model.Int(int64(st.Min)), model.Int(int64(st.Max)), model.Float(st.Avg)), nil
}

// execSelectDistance implements SELECT DISTANCE FROM a TO b — the length of
// a shortest path (Section IV.4's "distance between nodes").
func execSelectDistance(ctx context.Context, l *query.Lexer, e Engine) (*Result, error) {
	if err := l.ExpectIdent("FROM"); err != nil {
		return nil, err
	}
	from, err := parseID(l)
	if err != nil {
		return nil, err
	}
	if err := l.ExpectIdent("TO"); err != nil {
		return nil, err
	}
	to, err := parseID(l)
	if err != nil {
		return nil, err
	}
	d, err := algo.DistanceCtx(ctx, e, model.NodeID(from), model.NodeID(to), model.Both)
	if err != nil {
		return nil, err
	}
	return one([]string{"distance"}, model.Int(int64(d))), nil
}

// execSelectReach implements SELECT REACH FROM a TO b.
func execSelectReach(ctx context.Context, l *query.Lexer, e Engine) (*Result, error) {
	if err := l.ExpectIdent("FROM"); err != nil {
		return nil, err
	}
	from, err := parseID(l)
	if err != nil {
		return nil, err
	}
	if err := l.ExpectIdent("TO"); err != nil {
		return nil, err
	}
	to, err := parseID(l)
	if err != nil {
		return nil, err
	}
	ok, err := algo.ReachableCtx(ctx, e, model.NodeID(from), model.NodeID(to), model.Out)
	if err != nil {
		return nil, err
	}
	return one([]string{"reachable"}, model.Bool(ok)), nil
}
