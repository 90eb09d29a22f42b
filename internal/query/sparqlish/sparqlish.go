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
	"slices"
	"strings"

	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query"
	"gdbm/internal/query/plan"
)

// Query is a parsed SELECT query.
type Query struct {
	Vars []string
	Spec plan.MatchSpec
}

// TriplePattern is one subject-predicate-object pattern.
type TriplePattern struct {
	// SVar and OVar name the subject and object variables; where a name is
	// empty, the position holds the constant SConst or OConst instead, an
	// IRI or a literal.
	SVar, OVar string
	SConst     model.Value
	OConst     model.Value
	Pred       string // IRI text; "" is not allowed (predicate variables unsupported)
}

// Parse parses a sparqlish SELECT query.
func Parse(input string) (*Query, error) {
	l := query.NewLexer(input)
	l.IRIMode = true
	if err := l.ExpectIdent("SELECT"); err != nil {
		return nil, fmt.Errorf("sparqlish: %w", err)
	}
	distinct := l.AcceptIdent("DISTINCT")
	// Projection: ?a ?b ... or *
	var vars []string
	star := false
	for {
		t, err := l.Peek()
		if err != nil {
			return nil, err
		}
		if t.Kind == query.TokVar {
			l.Next()
			vars = append(vars, t.Text)
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
	var where query.Expr
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
			if where == nil {
				where = e
			} else {
				where = query.BinOp{Op: "and", L: where, R: e}
			}
			l.AcceptPunct(".")
			continue
		}
		tp, err := parseTriple(l)
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
	if star {
		for _, tp := range patterns {
			for _, v := range [2]string{tp.SVar, tp.OVar} {
				if v != "" && !slices.Contains(vars, v) {
					vars = append(vars, v)
				}
			}
		}
	}
	if len(vars) == 0 {
		return nil, fmt.Errorf("sparqlish: SELECT needs at least one variable")
	}
	q, err := Compile(patterns, vars)
	if err != nil {
		return nil, err
	}
	q.Spec.Where, q.Spec.Distinct = where, distinct
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
			if q.Spec.Limit, err = l.Count(); err != nil {
				return nil, fmt.Errorf("sparqlish: LIMIT: %w", err)
			}
		case "OFFSET":
			l.Next()
			if q.Spec.Offset, err = l.Count(); err != nil {
				return nil, fmt.Errorf("sparqlish: OFFSET: %w", err)
			}
		default:
			return nil, l.Errorf(t.Pos, "unexpected keyword %q", t.Text)
		}
	}
	return q, nil
}

func parseTriple(l *query.Lexer) (TriplePattern, error) {
	var tp TriplePattern
	// Subject.
	t, err := l.Next()
	if err != nil {
		return tp, err
	}
	switch t.Kind {
	case query.TokVar:
		tp.SVar = t.Text
	case query.TokIRI, query.TokString:
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
	case query.TokIRI, query.TokString:
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

// Compile lowers a basic graph pattern onto the shared MatchSpec, the one
// path from triple patterns to a plan: every distinct variable becomes a
// pattern node; each triple becomes a directed edge labelled with the
// predicate. Constant terms become nodes whose "value" property must equal
// the constant — the triple engine represents every resource/literal as a
// node with a value property. The spec projects the lexical value of each
// of vars, which must all occur in patterns, and has no other modifier.
func Compile(patterns []TriplePattern, vars []string) (*Query, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("sparqlish: empty basic graph pattern")
	}
	q := &Query{Vars: vars}
	q.Spec.Limit = -1
	nodeIdx := map[string]int{}
	// term returns the node of a triple position: variable name's one node,
	// or, where name is empty, a fresh node for the constant c.
	term := func(name string, c model.Value) int {
		if i, ok := nodeIdx[name]; ok {
			return i
		}
		i := len(q.Spec.Nodes)
		if name == "" {
			// Anonymous: the planner names it clear of the user's variables.
			q.Spec.Nodes = append(q.Spec.Nodes, plan.NodePat{Props: model.Properties{"value": c}})
			return i
		}
		q.Spec.Nodes = append(q.Spec.Nodes, plan.NodePat{Var: name})
		nodeIdx[name] = i
		return i
	}
	for _, tp := range patterns {
		if tp.Pred == "" {
			return nil, fmt.Errorf("sparqlish: empty predicate")
		}
		s := term(tp.SVar, tp.SConst)
		q.Spec.Edges = append(q.Spec.Edges, plan.EdgePat{Label: tp.Pred, From: s, To: term(tp.OVar, tp.OConst), Dir: model.Out})
	}
	for _, v := range vars {
		if _, ok := nodeIdx[v]; !ok {
			return nil, fmt.Errorf("sparqlish: projected variable ?%s not bound in WHERE", v)
		}
		// Project the term's lexical value.
		q.Spec.Return = append(q.Spec.Return, plan.Item{
			Name: v, Expr: query.Var{Name: v, Prop: "value"},
		})
	}
	return q, nil
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
