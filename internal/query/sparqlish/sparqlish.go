// Package sparqlish implements the SPARQL-like query surface of the
// AllegroGraph-archetype triple engine. The survey marks that engine's
// query language as *partial* support because SPARQL matches triple
// patterns rather than arbitrary graph structure; this front-end has the
// same shape: basic graph patterns with FILTER, DISTINCT and LIMIT.
//
//	SELECT ?x ?name
//	WHERE {
//	  ?x <type> "person" .
//	  ?x <name> ?name .
//	  FILTER (?name != "ada")
//	}
//	ORDER BY ?name LIMIT 10
//
// Subjects are resources; predicates are IRIs (edge labels); objects are
// resources (variables / IRIs) or literals. Literal objects match node
// values: the triple engine stores literals as value nodes.
package sparqlish

import (
	"context"
	"fmt"
	"strings"

	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query"
	"gdbm/internal/query/plan"
)

// Query is a parsed SELECT query.
type Query struct {
	Vars     []string
	Spec     plan.MatchSpec
	Distinct bool
}

// TriplePattern is one subject-predicate-object pattern.
type TriplePattern struct {
	// S and O are variable names (no '?') or constant terms; constants are
	// IRIs or literals.
	SVar, OVar string
	SConst     model.Value
	OConst     model.Value
	Pred       string // IRI text; "" is not allowed (predicate variables unsupported)
}

// Parse parses a sparqlish SELECT query.
func Parse(input string) (*Query, error) {
	l := query.NewLexer(input)
	l.IRIMode = true
	q := &Query{}
	q.Spec.Limit = -1
	if err := l.ExpectIdent("SELECT"); err != nil {
		return nil, fmt.Errorf("sparqlish: %w", err)
	}
	if l.AcceptIdent("DISTINCT") {
		q.Distinct = true
		q.Spec.Distinct = true
	}
	// Projection: ?a ?b ... or *
	star := false
	for {
		t, err := l.Peek()
		if err != nil {
			return nil, err
		}
		if t.Kind == query.TokVar {
			l.Next()
			q.Vars = append(q.Vars, t.Text)
			continue
		}
		if t.Kind == query.TokPunct && t.Text == "*" {
			l.Next()
			star = true
			continue
		}
		break
	}
	if err := l.ExpectIdent("WHERE"); err != nil {
		return nil, fmt.Errorf("sparqlish: %w", err)
	}
	if err := l.ExpectPunct("{"); err != nil {
		return nil, fmt.Errorf("sparqlish: %w", err)
	}
	var patterns []TriplePattern
	varSet := map[string]bool{}
	for {
		t, err := l.Peek()
		if err != nil {
			return nil, err
		}
		if t.Kind == query.TokPunct && t.Text == "}" {
			l.Next()
			break
		}
		if t.Kind == query.TokIdent && strings.EqualFold(t.Text, "FILTER") {
			l.Next()
			if err := l.ExpectPunct("("); err != nil {
				return nil, fmt.Errorf("sparqlish: %w", err)
			}
			e, err := query.ParseExpr(l)
			if err != nil {
				return nil, fmt.Errorf("sparqlish filter: %w", err)
			}
			if err := l.ExpectPunct(")"); err != nil {
				return nil, fmt.Errorf("sparqlish: %w", err)
			}
			e = rewriteVarsToValues(e)
			if q.Spec.Where == nil {
				q.Spec.Where = e
			} else {
				q.Spec.Where = query.BinOp{Op: "and", L: q.Spec.Where, R: e}
			}
			l.AcceptPunct(".")
			continue
		}
		tp, err := parseTriple(l, varSet)
		if err != nil {
			return nil, fmt.Errorf("sparqlish: %w", err)
		}
		patterns = append(patterns, tp)
		if !l.AcceptPunct(".") {
			// '.' is a separator; allow it to be omitted before '}'.
			t, err := l.Peek()
			if err != nil {
				return nil, err
			}
			if t.Kind != query.TokPunct || t.Text != "}" {
				return nil, l.Errorf(t.Pos, "expected '.' or '}' after triple pattern")
			}
		}
	}
	// Modifiers.
	for {
		t, err := l.Peek()
		if err != nil {
			return nil, err
		}
		if t.Kind == query.TokEOF {
			break
		}
		if t.Kind != query.TokIdent {
			return nil, l.Errorf(t.Pos, "unexpected %q", t.Text)
		}
		switch strings.ToUpper(t.Text) {
		case "ORDER":
			l.Next()
			if err := l.ExpectIdent("BY"); err != nil {
				return nil, err
			}
			for {
				ot, err := l.Peek()
				if err != nil {
					return nil, err
				}
				if ot.Kind != query.TokVar {
					break
				}
				l.Next()
				desc := false
				if l.AcceptIdent("DESC") {
					desc = true
				} else {
					l.AcceptIdent("ASC")
				}
				// OrderBy runs after projection, where the variable is
				// already bound to its lexical value.
				q.Spec.OrderBy = append(q.Spec.OrderBy, plan.OrderKey{
					Expr: query.Var{Name: ot.Text}, Desc: desc,
				})
			}
		case "LIMIT":
			l.Next()
			nt, err := l.Next()
			if err != nil {
				return nil, err
			}
			n := 0
			fmt.Sscanf(nt.Text, "%d", &n)
			q.Spec.Limit = n
		case "OFFSET":
			l.Next()
			nt, err := l.Next()
			if err != nil {
				return nil, err
			}
			n := 0
			fmt.Sscanf(nt.Text, "%d", &n)
			q.Spec.Offset = n
		default:
			return nil, l.Errorf(t.Pos, "unexpected keyword %q", t.Text)
		}
	}
	if err := q.compile(patterns, varSet, star); err != nil {
		return nil, err
	}
	return q, nil
}

func parseTriple(l *query.Lexer, varSet map[string]bool) (TriplePattern, error) {
	var tp TriplePattern
	// Subject.
	t, err := l.Next()
	if err != nil {
		return tp, err
	}
	switch t.Kind {
	case query.TokVar:
		tp.SVar = t.Text
		varSet[t.Text] = true
	case query.TokIRI:
		tp.SConst = model.Str(t.Text)
	case query.TokString:
		tp.SConst = model.Str(t.Text)
	default:
		return tp, l.Errorf(t.Pos, "bad triple subject %q", t.Text)
	}
	// Predicate.
	t, err = l.Next()
	if err != nil {
		return tp, err
	}
	switch t.Kind {
	case query.TokIRI, query.TokIdent:
		tp.Pred = t.Text
	default:
		return tp, l.Errorf(t.Pos, "bad triple predicate %q (predicate variables unsupported)", t.Text)
	}
	// Object.
	t, err = l.Next()
	if err != nil {
		return tp, err
	}
	switch t.Kind {
	case query.TokVar:
		tp.OVar = t.Text
		varSet[t.Text] = true
	case query.TokIRI:
		tp.OConst = model.Str(t.Text)
	case query.TokString:
		tp.OConst = model.Str(t.Text)
	case query.TokNumber:
		e, perr := query.ParseExprString(t.Text)
		if perr != nil {
			return tp, perr
		}
		v, _ := e.Eval(query.Row{})
		tp.OConst = v
	default:
		return tp, l.Errorf(t.Pos, "bad triple object %q", t.Text)
	}
	return tp, nil
}

// compile lowers triple patterns onto the shared MatchSpec: every distinct
// term becomes a pattern node; each triple becomes a directed edge labelled
// with the predicate. Constant terms constrain the node's "value" property —
// the triple engine represents every resource/literal as a node with a
// value property.
func (q *Query) compile(patterns []TriplePattern, varSet map[string]bool, star bool) error {
	if len(patterns) == 0 {
		return fmt.Errorf("sparqlish: empty basic graph pattern")
	}
	nodeIdx := map[string]int{}
	addVarNode := func(name string) int {
		if i, ok := nodeIdx[name]; ok {
			return i
		}
		i := len(q.Spec.Nodes)
		q.Spec.Nodes = append(q.Spec.Nodes, plan.NodePat{Var: name})
		nodeIdx[name] = i
		return i
	}
	addConstNode := func(v model.Value) int {
		i := len(q.Spec.Nodes)
		q.Spec.Nodes = append(q.Spec.Nodes, plan.NodePat{
			Var:   fmt.Sprintf("_c%d", i),
			Props: model.Properties{"value": v},
		})
		return i
	}
	for _, tp := range patterns {
		var s, o int
		if tp.SVar != "" {
			s = addVarNode(tp.SVar)
		} else {
			s = addConstNode(tp.SConst)
		}
		if tp.OVar != "" {
			o = addVarNode(tp.OVar)
		} else {
			o = addConstNode(tp.OConst)
		}
		q.Spec.Edges = append(q.Spec.Edges, plan.EdgePat{
			Label: tp.Pred, From: s, To: o, Dir: model.Out,
		})
	}
	if star {
		for v := range varSet {
			q.Vars = append(q.Vars, v)
		}
	}
	if len(q.Vars) == 0 {
		return fmt.Errorf("sparqlish: SELECT needs at least one variable")
	}
	for _, v := range q.Vars {
		if !varSet[v] {
			return fmt.Errorf("sparqlish: projected variable ?%s not bound in WHERE", v)
		}
		// Project the term's lexical value.
		q.Spec.Return = append(q.Spec.Return, plan.Item{
			Name: v, Expr: query.Var{Name: v, Prop: "value"},
		})
	}
	return nil
}

// rewriteVarsToValues turns bare variable references in a FILTER into
// accesses of the bound term's "value" property, so comparisons see the
// lexical value rather than the internal node identifier.
func rewriteVarsToValues(e query.Expr) query.Expr {
	return query.Rewrite(e, func(leaf query.Expr) query.Expr {
		if x, ok := leaf.(query.Var); ok && x.Prop == "" {
			return query.Var{Name: x.Name, Prop: "value"}
		}
		return leaf
	})
}

// RunStreamCtx parses and runs the query under ctx, delivering the result
// into sink as the operator tree produces rows. When ctx carries an
// obs.Trace, parsing and execution are recorded as "parse" and "exec"
// spans; tracing never changes the answer.
func RunStreamCtx(ctx context.Context, input string, src plan.Source, sink plan.Sink) error {
	tr := obs.FromContext(ctx)
	endParse := tr.StartSpan("parse")
	q, err := Parse(input)
	endParse()
	if err != nil {
		return err
	}
	defer tr.StartSpan("exec")()
	op, err := plan.CompileFor(&q.Spec, src)
	if err != nil {
		return err
	}
	return plan.Stream(op, plan.WithCancel(ctx, src), q.Vars, sink)
}
