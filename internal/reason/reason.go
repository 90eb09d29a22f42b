// Package reason holds the rule vocabulary of the "Reasoning" query
// facility of Table V, which the survey attributes to the AllegroGraph
// archetype (there via Prolog; here via datalog-style rules over triples).
// The triple engine evaluates the rules: each rule body is a basic graph
// pattern that the planner runs, to a fixpoint. RDFS-flavoured
// subclass/subproperty rules are provided as a standard rule set.
package reason

import (
	"fmt"
	"strings"
)

// Term is a constant or a variable; variables start with '?'.
type Term string

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return strings.HasPrefix(string(t), "?") }

// Pattern is a triple pattern over terms.
type Pattern struct {
	S, P, O Term
}

// Rule derives Head from the conjunction of Body patterns. Every head
// variable must appear in the body (safety). A body predicate is a
// constant — the edge label a basic graph pattern matches — while a head
// predicate may be a variable the body binds.
type Rule struct {
	Name string
	Head Pattern
	Body []Pattern
}

// Validate checks rule safety and that every body predicate is a constant,
// non-empty edge label.
func (r Rule) Validate() error {
	bound := map[Term]bool{}
	for _, p := range r.Body {
		if p.P == "" || p.P.IsVar() {
			return fmt.Errorf("reason: rule %q body predicate %q is not an edge label", r.Name, p.P)
		}
		for _, t := range []Term{p.S, p.O} {
			if t.IsVar() {
				bound[t] = true
			}
		}
	}
	for _, t := range []Term{r.Head.S, r.Head.P, r.Head.O} {
		if t.IsVar() && !bound[t] {
			return fmt.Errorf("reason: rule %q head variable %s not bound in body", r.Name, t)
		}
	}
	if len(r.Body) == 0 {
		return fmt.Errorf("reason: rule %q has an empty body", r.Name)
	}
	return nil
}

// RDFS returns the standard rule set: transitivity of subClassOf and
// subPropertyOf, and type propagation through subClassOf. Property
// propagation through subPropertyOf is not among them: its body needs a
// predicate variable.
func RDFS() []Rule {
	return []Rule{
		{
			Name: "subclass-transitive",
			Head: Pattern{"?a", "subClassOf", "?c"},
			Body: []Pattern{{"?a", "subClassOf", "?b"}, {"?b", "subClassOf", "?c"}},
		},
		{
			Name: "type-inheritance",
			Head: Pattern{"?x", "type", "?c"},
			Body: []Pattern{{"?x", "type", "?b"}, {"?b", "subClassOf", "?c"}},
		},
		{
			Name: "subproperty-transitive",
			Head: Pattern{"?p", "subPropertyOf", "?r"},
			Body: []Pattern{{"?p", "subPropertyOf", "?q"}, {"?q", "subPropertyOf", "?r"}},
		},
	}
}
