// Package gql implements the Cypher-like property-graph query language that
// the Neo4j-archetype engine exposes (the survey records Neo4j's query
// language as partial — "Neo4j is developing Cypher"). Supported statements:
//
//	MATCH (a:Person {name: 'ada'})-[r:knows]->(b)
//	      WHERE b.age > 30
//	      RETURN DISTINCT b.name AS name, count(*) AS n
//	      ORDER BY name DESC SKIP 1 LIMIT 10
//	CREATE (n:Label {k: v, ...})
//	MATCH ... CREATE (a)-[:REL {k: v}]->(b)
//	MATCH ... SET a.prop = expr
//	MATCH ... DELETE a
//
// Patterns may chain, e.g. (a)-[:x]->(b)<-[:y]-(c), and MATCH accepts
// comma-separated patterns.
package gql

import (
	"fmt"
	"strings"

	"gdbm/internal/model"
	"gdbm/internal/query"
	"gdbm/internal/query/plan"
)

// Statement is a parsed gql statement.
type Statement struct {
	// Match is the read part; nil for a bare CREATE.
	Match *plan.MatchSpec
	// Creates are nodes/edges to create per binding row (or once if no
	// match part).
	CreateNodes []CreateNode
	CreateEdges []CreateEdge
	// Sets are property assignments per binding row.
	Sets []SetItem
	// Deletes are variables whose bound entity is removed per row.
	Deletes []string
	// Detach deletes incident edges along with nodes.
	Detach bool
}

// CreateNode describes one node to create.
type CreateNode struct {
	Var   string
	Label string
	Props model.Properties
}

// CreateEdge describes one edge to create between two bound variables.
type CreateEdge struct {
	FromVar, ToVar string
	Label          string
	Props          model.Properties
}

// SetItem is one SET assignment.
type SetItem struct {
	Var  string
	Prop string
	Expr query.Expr
}

// ReadOnly reports whether the statement has no write clauses.
func (s *Statement) ReadOnly() bool {
	return len(s.CreateNodes) == 0 && len(s.CreateEdges) == 0 && len(s.Sets) == 0 && len(s.Deletes) == 0
}

// Columns returns the output column names of the RETURN clause.
func (s *Statement) Columns() []string {
	if s.Match == nil {
		return nil
	}
	var cols []string
	for _, it := range s.Match.GroupBy {
		cols = append(cols, it.Name)
	}
	if len(s.Match.Aggs) > 0 {
		for _, a := range s.Match.Aggs {
			cols = append(cols, a.Name)
		}
		return cols
	}
	for _, it := range s.Match.Return {
		cols = append(cols, it.Name)
	}
	return cols
}

// Parse parses one gql statement.
func Parse(input string) (*Statement, error) {
	p := &parser{lex: query.NewLexer(input), vars: map[string]int{}}
	st, err := p.parseStatement()
	if err != nil {
		return nil, fmt.Errorf("gql: %w", err)
	}
	return st, nil
}

type parser struct {
	lex  *query.Lexer
	spec plan.MatchSpec
	vars map[string]int // pattern variable -> node index
}

func (p *parser) parseStatement() (*Statement, error) {
	st := &Statement{}
	p.spec.Limit = -1
	hasMatch := false
	for {
		t, err := p.lex.Peek()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOFKind {
			break
		}
		if t.Kind != query.TokIdent {
			return nil, p.lex.Errorf(t.Pos, "expected a clause keyword, got %q", t.Text)
		}
		switch strings.ToUpper(t.Text) {
		case "MATCH":
			p.lex.Next()
			if err := p.parsePatterns(); err != nil {
				return nil, err
			}
			hasMatch = true
		case "WHERE":
			p.lex.Next()
			e, err := query.ParseExpr(p.lex)
			if err != nil {
				return nil, err
			}
			if p.spec.Where == nil {
				p.spec.Where = e
			} else {
				p.spec.Where = query.BinOp{Op: "and", L: p.spec.Where, R: e}
			}
		case "RETURN":
			p.lex.Next()
			if err := p.parseReturn(); err != nil {
				return nil, err
			}
		case "ORDER":
			p.lex.Next()
			if err := p.lex.ExpectIdent("BY"); err != nil {
				return nil, err
			}
			if err := p.parseOrderBy(); err != nil {
				return nil, err
			}
		case "SKIP":
			p.lex.Next()
			n, err := p.lex.Count()
			if err != nil {
				return nil, err
			}
			p.spec.Offset = n
		case "LIMIT":
			p.lex.Next()
			n, err := p.lex.Count()
			if err != nil {
				return nil, err
			}
			p.spec.Limit = n
		case "CREATE":
			p.lex.Next()
			if err := p.parseCreate(st); err != nil {
				return nil, err
			}
		case "SET":
			p.lex.Next()
			if err := p.parseSet(st); err != nil {
				return nil, err
			}
		case "DETACH":
			p.lex.Next()
			if err := p.lex.ExpectIdent("DELETE"); err != nil {
				return nil, err
			}
			st.Detach = true
			if err := p.parseDelete(st); err != nil {
				return nil, err
			}
		case "DELETE":
			p.lex.Next()
			if err := p.parseDelete(st); err != nil {
				return nil, err
			}
		default:
			return nil, p.lex.Errorf(t.Pos, "unexpected clause %q", t.Text)
		}
	}
	if hasMatch || len(p.spec.Return) > 0 || len(p.spec.Aggs) > 0 {
		spec := p.spec
		st.Match = &spec
	}
	if st.Match == nil && len(st.CreateNodes) == 0 && len(st.CreateEdges) == 0 {
		return nil, fmt.Errorf("empty statement")
	}
	return st, nil
}

// TokEOFKind aliases the lexer EOF kind for readability.
const TokEOFKind = query.TokEOF

// parsePatterns parses comma-separated pattern chains.
func (p *parser) parsePatterns() error {
	for {
		if err := p.parsePatternChain(); err != nil {
			return err
		}
		if !p.lex.AcceptPunct(",") {
			return nil
		}
	}
}

// parsePatternChain parses (a)-[r]->(b)<-[s]-(c)...
func (p *parser) parsePatternChain() error {
	left, err := p.parseNodePattern()
	if err != nil {
		return err
	}
	for {
		t, err := p.lex.Peek()
		if err != nil {
			return err
		}
		if t.Kind != query.TokPunct || (t.Text != "-" && t.Text != "<-") {
			return nil
		}
		// Directions: -[r]-> or <-[r]- or -[r]- (both).
		leftArrow := t.Text == "<-"
		p.lex.Next()
		var ev, elabel string
		var props model.Properties
		var vl varLength
		if p.lex.AcceptPunct("[") {
			ev, elabel, props, vl, err = p.parseEdgeBody()
			if err != nil {
				return err
			}
			if err := p.lex.ExpectPunct("]"); err != nil {
				return err
			}
		}
		_ = props // edge property patterns become WHERE filters below
		rightArrow := false
		if p.lex.AcceptPunct("->") {
			rightArrow = true
		} else if !p.lex.AcceptPunct("-") {
			return fmt.Errorf("expected '-' or '->' after edge pattern")
		}
		right, err := p.parseNodePattern()
		if err != nil {
			return err
		}
		dir := model.Both
		from, to := left, right
		switch {
		case rightArrow && !leftArrow:
			dir = model.Out
		case leftArrow && !rightArrow:
			dir = model.Out
			from, to = right, left
		}
		if vl.enabled && ev != "" {
			return fmt.Errorf("variable-length patterns cannot bind an edge variable %q", ev)
		}
		p.spec.Edges = append(p.spec.Edges, plan.EdgePat{
			Var: ev, Label: elabel, From: from, To: to, Dir: dir,
			VarLength: vl.enabled, Min: vl.min, Max: vl.max,
		})
		if ev != "" && len(props) > 0 {
			for k, v := range props {
				cond := query.BinOp{Op: "=", L: query.Var{Name: ev, Prop: k}, R: query.Lit{V: v}}
				if p.spec.Where == nil {
					p.spec.Where = cond
				} else {
					p.spec.Where = query.BinOp{Op: "and", L: p.spec.Where, R: cond}
				}
			}
		}
		left = right
	}
}

// parseNodePattern parses (var:Label {k: v, ...}); every part optional.
func (p *parser) parseNodePattern() (int, error) {
	if err := p.lex.ExpectPunct("("); err != nil {
		return 0, err
	}
	var name, label string
	t, err := p.lex.Peek()
	if err != nil {
		return 0, err
	}
	if t.Kind == query.TokIdent {
		p.lex.Next()
		name = t.Text
	}
	if p.lex.AcceptPunct(":") {
		lt, err := p.lex.Next()
		if err != nil {
			return 0, err
		}
		if lt.Kind != query.TokIdent {
			return 0, p.lex.Errorf(lt.Pos, "expected a label")
		}
		label = lt.Text
	}
	var props model.Properties
	if p.lex.AcceptPunct("{") {
		props, err = p.parsePropMap()
		if err != nil {
			return 0, err
		}
	}
	if err := p.lex.ExpectPunct(")"); err != nil {
		return 0, err
	}
	// Reuse the node index for repeated variables.
	if name != "" {
		if idx, ok := p.vars[name]; ok {
			if label != "" {
				p.spec.Nodes[idx].Label = label
			}
			for k, v := range props {
				if p.spec.Nodes[idx].Props == nil {
					p.spec.Nodes[idx].Props = model.Properties{}
				}
				p.spec.Nodes[idx].Props[k] = v
			}
			return idx, nil
		}
	}
	idx := len(p.spec.Nodes)
	p.spec.Nodes = append(p.spec.Nodes, plan.NodePat{Var: name, Label: label, Props: props})
	if name != "" {
		p.vars[name] = idx
	}
	return idx, nil
}

// varLength carries a parsed *min..max modifier.
type varLength struct {
	enabled  bool
	min, max int
}

// parseEdgeBody parses the inside of [var:LABEL*min..max {props}]. The
// variable-length modifier follows Cypher: * (1..unbounded), *n (exactly
// n), *min..max, *min.. and *..max. A written upper bound must be at
// least 1 and at least min.
func (p *parser) parseEdgeBody() (ev, label string, props model.Properties, vl varLength, err error) {
	t, err := p.lex.Peek()
	if err != nil {
		return "", "", nil, vl, err
	}
	if t.Kind == query.TokIdent {
		p.lex.Next()
		ev = t.Text
	}
	if p.lex.AcceptPunct(":") {
		lt, err := p.lex.Next()
		if err != nil {
			return "", "", nil, vl, err
		}
		if lt.Kind != query.TokIdent {
			return "", "", nil, vl, p.lex.Errorf(lt.Pos, "expected an edge label")
		}
		label = lt.Text
	}
	if p.lex.AcceptPunct("*") {
		vl.enabled = true
		vl.min = 1
		// upper records a written upper bound: plan reads Max 0 as
		// unbounded, so a written 0 must be refused, not passed on.
		upper := false
		if n, ok, err := p.acceptInt(); err != nil {
			return "", "", nil, vl, err
		} else if ok {
			vl.min, vl.max, upper = n, n, true
		}
		if p.lex.AcceptPunct(".") {
			if err := p.lex.ExpectPunct("."); err != nil {
				return "", "", nil, vl, err
			}
			vl.max, upper = 0, false
			if n, ok, err := p.acceptInt(); err != nil {
				return "", "", nil, vl, err
			} else if ok {
				vl.max, upper = n, true
			}
		}
		if upper && vl.max < vl.min {
			return "", "", nil, vl, fmt.Errorf("variable-length range %d..%d is empty", vl.min, vl.max)
		}
		if upper && vl.max == 0 {
			return "", "", nil, vl, fmt.Errorf("variable-length range %d..%d: the upper bound must be at least 1", vl.min, vl.max)
		}
	}
	if p.lex.AcceptPunct("{") {
		props, err = p.parsePropMap()
		if err != nil {
			return "", "", nil, vl, err
		}
	}
	return ev, label, props, vl, nil
}

// acceptInt consumes an integer token if present.
func (p *parser) acceptInt() (int, bool, error) {
	t, err := p.lex.Peek()
	if err != nil {
		return 0, false, err
	}
	if t.Kind != query.TokNumber {
		return 0, false, nil
	}
	n, err := p.lex.Count()
	return n, err == nil, err
}

// parsePropMap parses k: v, ... } — the opening brace is already consumed.
func (p *parser) parsePropMap() (model.Properties, error) {
	props := model.Properties{}
	if p.lex.AcceptPunct("}") {
		return props, nil
	}
	for {
		kt, err := p.lex.Next()
		if err != nil {
			return nil, err
		}
		if kt.Kind != query.TokIdent {
			return nil, p.lex.Errorf(kt.Pos, "expected a property name")
		}
		if err := p.lex.ExpectPunct(":"); err != nil {
			return nil, err
		}
		e, err := query.ParseExpr(p.lex)
		if err != nil {
			return nil, err
		}
		v, err := e.Eval(query.Row{})
		if err != nil {
			return nil, fmt.Errorf("property %q must be a constant: %w", kt.Text, err)
		}
		props[kt.Text] = v
		if p.lex.AcceptPunct(",") {
			continue
		}
		if err := p.lex.ExpectPunct("}"); err != nil {
			return nil, err
		}
		return props, nil
	}
}

func (p *parser) parseReturn() error {
	p.spec.Distinct = p.lex.AcceptIdent("DISTINCT")
	for {
		e, err := query.ParseExpr(p.lex)
		if err != nil {
			return err
		}
		name := e.String()
		if p.lex.AcceptIdent("AS") {
			at, err := p.lex.Next()
			if err != nil {
				return err
			}
			if at.Kind != query.TokIdent {
				return p.lex.Errorf(at.Pos, "expected an alias")
			}
			name = at.Text
		}
		if call, ok := e.(query.Call); ok && query.AggFuncs[strings.ToLower(call.Fn)] {
			var arg query.Expr
			if len(call.Args) == 1 {
				if lit, isLit := call.Args[0].(query.Lit); !isLit || lit.V.String() != "*" {
					arg = call.Args[0]
				}
			}
			p.spec.Aggs = append(p.spec.Aggs, plan.AggItem{Name: name, Fn: call.Fn, Arg: arg})
		} else {
			p.spec.Return = append(p.spec.Return, plan.Item{Name: name, Expr: e})
		}
		if !p.lex.AcceptPunct(",") {
			break
		}
	}
	if len(p.spec.Aggs) > 0 {
		p.spec.GroupBy = p.spec.Return
		p.spec.Return = nil
	}
	return nil
}

func (p *parser) parseOrderBy() error {
	for {
		e, err := query.ParseExpr(p.lex)
		if err != nil {
			return err
		}
		desc := false
		if p.lex.AcceptIdent("DESC") {
			desc = true
		} else {
			p.lex.AcceptIdent("ASC")
		}
		p.spec.OrderBy = append(p.spec.OrderBy, plan.OrderKey{Expr: e, Desc: desc})
		if !p.lex.AcceptPunct(",") {
			return nil
		}
	}
}

func (p *parser) parseCreate(st *Statement) error {
	for {
		if err := p.parseCreateElement(st); err != nil {
			return err
		}
		if !p.lex.AcceptPunct(",") {
			return nil
		}
	}
}

// parseCreateElement parses (n:L {..}) or (a)-[:R {..}]->(b).
func (p *parser) parseCreateElement(st *Statement) error {
	if err := p.lex.ExpectPunct("("); err != nil {
		return err
	}
	var name, label string
	t, err := p.lex.Peek()
	if err != nil {
		return err
	}
	if t.Kind == query.TokIdent {
		p.lex.Next()
		name = t.Text
	}
	if p.lex.AcceptPunct(":") {
		lt, err := p.lex.Next()
		if err != nil {
			return err
		}
		label = lt.Text
	}
	var props model.Properties
	if p.lex.AcceptPunct("{") {
		props, err = p.parsePropMap()
		if err != nil {
			return err
		}
	}
	if err := p.lex.ExpectPunct(")"); err != nil {
		return err
	}
	// Edge creation?
	if p.lex.AcceptPunct("-") {
		if err := p.lex.ExpectPunct("["); err != nil {
			return err
		}
		_, elabel, eprops, vl, err := p.parseEdgeBody()
		if err != nil {
			return err
		}
		if vl.enabled {
			return fmt.Errorf("CREATE cannot use variable-length patterns")
		}
		if err := p.lex.ExpectPunct("]"); err != nil {
			return err
		}
		if err := p.lex.ExpectPunct("->"); err != nil {
			return err
		}
		if err := p.lex.ExpectPunct("("); err != nil {
			return err
		}
		tt, err := p.lex.Next()
		if err != nil {
			return err
		}
		if tt.Kind != query.TokIdent {
			return p.lex.Errorf(tt.Pos, "CREATE edge target must be a bound variable")
		}
		if err := p.lex.ExpectPunct(")"); err != nil {
			return err
		}
		if elabel == "" {
			return fmt.Errorf("CREATE edge requires a label")
		}
		st.CreateEdges = append(st.CreateEdges, CreateEdge{
			FromVar: name, ToVar: tt.Text, Label: elabel, Props: eprops,
		})
		return nil
	}
	if label == "" && len(props) == 0 && name != "" {
		// (a) alone in CREATE context: likely the head of an edge — but we
		// got here only if no '-' followed, so treat as a bare node.
		st.CreateNodes = append(st.CreateNodes, CreateNode{Var: name})
		return nil
	}
	st.CreateNodes = append(st.CreateNodes, CreateNode{Var: name, Label: label, Props: props})
	return nil
}

func (p *parser) parseSet(st *Statement) error {
	for {
		vt, err := p.lex.Next()
		if err != nil {
			return err
		}
		if vt.Kind != query.TokIdent {
			return p.lex.Errorf(vt.Pos, "SET expects var.prop")
		}
		if err := p.lex.ExpectPunct("."); err != nil {
			return err
		}
		pt, err := p.lex.Next()
		if err != nil {
			return err
		}
		if err := p.lex.ExpectPunct("="); err != nil {
			return err
		}
		e, err := query.ParseExpr(p.lex)
		if err != nil {
			return err
		}
		st.Sets = append(st.Sets, SetItem{Var: vt.Text, Prop: pt.Text, Expr: e})
		if !p.lex.AcceptPunct(",") {
			return nil
		}
	}
}

func (p *parser) parseDelete(st *Statement) error {
	for {
		vt, err := p.lex.Next()
		if err != nil {
			return err
		}
		if vt.Kind != query.TokIdent {
			return p.lex.Errorf(vt.Pos, "DELETE expects variables")
		}
		st.Deletes = append(st.Deletes, vt.Text)
		if !p.lex.AcceptPunct(",") {
			return nil
		}
	}
}
