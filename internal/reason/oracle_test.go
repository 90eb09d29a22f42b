package reason_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/engines/triplestore"
	"gdbm/internal/reason"
)

// The definitional oracle: rule evaluation written down over a set of
// string triples, with a matcher that scans every fact for every body atom.
// The triple engine evaluates the same rules on the planner; the tests hold
// its answers to this one.

// triple is a subject-predicate-object statement over string terms.
type triple struct{ s, p, o string }

func (t triple) String() string { return fmt.Sprintf("(%s %s %s)", t.s, t.p, t.o) }

// infer computes the fixpoint of rules over base and returns the newly
// derived triples, with the number of rounds that derived any. It runs
// semi-naive evaluation: each round only joins against facts derived in the
// previous round.
func infer(base []triple, rules []reason.Rule) (map[triple]bool, int) {
	all := map[triple]bool{}
	for _, t := range base {
		all[t] = true
	}
	delta := maps.Clone(all)
	derived := map[triple]bool{}
	rounds := 0
	for ; len(delta) > 0; rounds++ {
		next := map[triple]bool{}
		for _, r := range rules {
			// At least one body atom must match a delta fact; iterate
			// its position.
			for pos := range r.Body {
				for _, b := range matchBody(r.Body, pos, all, delta) {
					t, ok := instantiate(r.Head, b)
					if ok && !all[t] {
						all[t], next[t], derived[t] = true, true, true
					}
				}
			}
		}
		delta = next
	}
	return derived, max(rounds-1, 0)
}

// binding maps variables to constants.
type binding map[reason.Term]string

// matchBody enumerates bindings satisfying the body, with atom deltaPos
// restricted to delta facts.
func matchBody(body []reason.Pattern, deltaPos int, all, delta map[triple]bool) []binding {
	var out []binding
	var rec func(i int, b binding)
	rec = func(i int, b binding) {
		if i == len(body) {
			out = append(out, maps.Clone(b))
			return
		}
		source := all
		if i == deltaPos {
			source = delta
		}
		for t := range source {
			if nb, ok := unify(body[i], t, b); ok {
				rec(i+1, nb)
			}
		}
	}
	rec(0, binding{})
	return out
}

// unify extends b so that p matches t, or reports failure. It never mutates
// b; on success it returns an extended copy.
func unify(p reason.Pattern, t triple, b binding) (binding, bool) {
	nb := maps.Clone(b)
	bind := func(term reason.Term, val string) bool {
		if !term.IsVar() {
			return string(term) == val
		}
		if cur, ok := nb[term]; ok {
			return cur == val
		}
		nb[term] = val
		return true
	}
	if !bind(p.S, t.s) || !bind(p.P, t.p) || !bind(p.O, t.o) {
		return b, false
	}
	return nb, true
}

func instantiate(p reason.Pattern, b binding) (triple, bool) {
	get := func(t reason.Term) (string, bool) {
		if t.IsVar() {
			v, ok := b[t]
			return v, ok
		}
		return string(t), true
	}
	s, ok1 := get(p.S)
	pr, ok2 := get(p.P)
	o, ok3 := get(p.O)
	return triple{s, pr, o}, ok1 && ok2 && ok3
}

// materialize installs rules in db beside its RDFS defaults, asserts base,
// runs Materialize, and returns the statements that added. It fails t
// unless the count Materialize returns is theirs.
func materialize(t *testing.T, db *triplestore.DB, base []triple, rules []reason.Rule) map[triple]bool {
	t.Helper()
	for _, r := range rules {
		if err := db.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range base {
		if err := db.AddTriple(f.s, f.p, f.o); err != nil {
			t.Fatal(err)
		}
	}
	n, err := db.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	derived := map[triple]bool{}
	if err := db.Triples(func(s, p, o string) bool {
		derived[triple{s, p, o}] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, f := range base {
		delete(derived, f)
	}
	if n != len(derived) {
		t.Fatalf("Materialize reported %d statements, added %d", n, len(derived))
	}
	return derived
}

// derive evaluates rules over base in a main-memory triple store, which
// holds the RDFS rules besides, and returns the derived statements. It
// fails t unless they are exactly the oracle's over the same rules.
func derive(t *testing.T, base []triple, rules []reason.Rule) map[triple]bool {
	t.Helper()
	db, err := triplestore.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	got := materialize(t, db, base, rules)
	if want, _ := infer(base, append(reason.RDFS(), rules...)); !maps.Equal(got, want) {
		t.Fatalf("Materialize derived %v, oracle %v", got, want)
	}
	return got
}

// randomCase draws a few triples over a small vocabulary, RDFS's predicates
// among it, and 1–4 safe rules whose bodies have 1–3 atoms with constants
// and repeated variables; the heads reuse the body predicates, so rules
// feed each other and themselves.
func randomCase(rng *rand.Rand) ([]triple, []reason.Rule) {
	terms := []string{"a", "b", "c", "d", "e"}
	preds := []string{"p", "q", "subClassOf", "type"}
	vars := []reason.Term{"?x", "?y", "?z"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	base := make([]triple, 2+rng.Intn(8))
	for i := range base {
		base[i] = triple{pick(terms), pick(preds), pick(terms)}
	}
	rules := make([]reason.Rule, 1+rng.Intn(4))
	for i := range rules {
		var bound []reason.Term
		node := func() reason.Term {
			if rng.Intn(4) == 0 {
				return reason.Term(pick(terms))
			}
			v := vars[rng.Intn(len(vars))]
			if !slices.Contains(bound, v) {
				bound = append(bound, v)
			}
			return v
		}
		r := reason.Rule{Name: fmt.Sprintf("r%d", i)}
		for range 1 + rng.Intn(3) {
			r.Body = append(r.Body, reason.Pattern{S: node(), P: reason.Term(pick(preds)), O: node()})
		}
		head := func() reason.Term {
			if len(bound) > 0 && rng.Intn(5) > 0 {
				return bound[rng.Intn(len(bound))]
			}
			return reason.Term(pick(terms))
		}
		r.Head = reason.Pattern{S: head(), P: reason.Term(pick(preds)), O: head()}
		if len(bound) > 0 && rng.Intn(10) == 0 {
			r.Head.P = bound[rng.Intn(len(bound))]
		}
		rules[i] = r
	}
	return base, rules
}

// TestMaterializeMatchesOracle holds the planner-backed fixpoint to the
// oracle on random triples and rule sets, over the main-memory and the
// disk-backed store: the store after Materialize is the base plus the
// oracle's derivations, and the count returned is theirs.
func TestMaterializeMatchesOracle(t *testing.T) {
	const cases = 200
	var deep, constant, repeated bool
	for seed := int64(0); seed < cases; seed++ {
		base, rules := randomCase(rand.New(rand.NewSource(seed)))
		want, rounds := infer(base, append(reason.RDFS(), rules...))
		deep = deep || rounds >= 3
		for _, r := range rules {
			for _, p := range r.Body {
				constant = constant || !p.S.IsVar() || !p.O.IsVar()
				repeated = repeated || p.S.IsVar() && p.S == p.O
			}
		}
		for _, dir := range []string{"", t.TempDir()} {
			db, err := triplestore.New(engine.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			got := materialize(t, db, base, rules)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("seed %d, dir %q: Materialize derived %v\noracle %v\nbase %v\nrules %+v", seed, dir, got, want, base, rules)
			}
		}
	}
	// Vacuity guards: the cases reach what the evaluator must get right.
	if !deep || !constant || !repeated {
		t.Fatalf("cases too easy: some need 3+ rounds %v, some body constant %v, some variable repeated in an atom %v", deep, constant, repeated)
	}
}
