package reason_test

import (
	"maps"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/engines/triplestore"
	"gdbm/internal/reason"
)

func TestSubclassTransitivity(t *testing.T) {
	base := []triple{
		{"cat", "subClassOf", "mammal"},
		{"mammal", "subClassOf", "animal"},
		{"felix", "type", "cat"},
	}
	got := derive(t, base, reason.RDFS())
	want := map[triple]bool{
		{"cat", "subClassOf", "animal"}: true,
		{"felix", "type", "mammal"}:     true,
		{"felix", "type", "animal"}:     true,
	}
	if !maps.Equal(got, want) {
		t.Errorf("derived %v, want exactly %v", got, want)
	}
}

func TestDeepChainFixpoint(t *testing.T) {
	// c0 ⊂ c1 ⊂ ... ⊂ c9: transitive closure has 9*8/2 = 36 new pairs.
	var base []triple
	for i := 0; i < 9; i++ {
		base = append(base, triple{cls(i), "subClassOf", cls(i + 1)})
	}
	if derived := derive(t, base, reason.RDFS()); len(derived) != 36 {
		t.Errorf("derived %d, want 36", len(derived))
	}
}

func cls(i int) string { return string(rune('a' + i)) }

func TestCustomRule(t *testing.T) {
	// ancestor via parent.
	rules := []reason.Rule{
		{
			Name: "ancestor-base",
			Head: reason.Pattern{S: "?x", P: "ancestor", O: "?y"},
			Body: []reason.Pattern{{S: "?x", P: "parent", O: "?y"}},
		},
		{
			Name: "ancestor-step",
			Head: reason.Pattern{S: "?x", P: "ancestor", O: "?z"},
			Body: []reason.Pattern{{S: "?x", P: "parent", O: "?y"}, {S: "?y", P: "ancestor", O: "?z"}},
		},
	}
	base := []triple{
		{"a", "parent", "b"},
		{"b", "parent", "c"},
		{"c", "parent", "d"},
	}
	got := derive(t, base, rules)
	for _, w := range []triple{
		{"a", "ancestor", "b"}, {"a", "ancestor", "c"}, {"a", "ancestor", "d"},
		{"b", "ancestor", "c"}, {"b", "ancestor", "d"}, {"c", "ancestor", "d"},
	} {
		if !got[w] {
			t.Errorf("missing %v", w)
		}
	}
	if len(got) != 6 {
		t.Errorf("derived = %v", got)
	}
}

func TestUnsafeRuleRejected(t *testing.T) {
	db, err := triplestore.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, bad := range []reason.Rule{
		{Name: "unsafe", Head: reason.Pattern{S: "?x", P: "p", O: "?unbound"}, Body: []reason.Pattern{{S: "?x", P: "q", O: "?y"}}},
		{Name: "emptybody", Head: reason.Pattern{S: "a", P: "b", O: "c"}},
		{Name: "bodypredvar", Head: reason.Pattern{S: "?x", P: "p", O: "?y"}, Body: []reason.Pattern{{S: "?x", P: "?p", O: "?y"}}},
		{Name: "bodypredempty", Head: reason.Pattern{S: "?x", P: "p", O: "?y"}, Body: []reason.Pattern{{S: "?x", P: "", O: "?y"}}},
	} {
		if bad.Validate() == nil || db.AddRule(bad) == nil {
			t.Errorf("rule %q should be rejected", bad.Name)
		}
	}
	// A head predicate may be a variable the body binds.
	ok := reason.Rule{Name: "headpredvar", Head: reason.Pattern{S: "?x", P: "?y", O: "?x"}, Body: []reason.Pattern{{S: "?x", P: "q", O: "?y"}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("head predicate variable rejected: %v", err)
	}
}

func TestNoRulesNoDerivation(t *testing.T) {
	if derived := derive(t, []triple{{"a", "b", "c"}}, nil); len(derived) != 0 {
		t.Errorf("derived = %v", derived)
	}
}

func TestConstantPatternRule(t *testing.T) {
	rules := []reason.Rule{{
		Name: "mark-root",
		Head: reason.Pattern{S: "?x", P: "isRoot", O: "true"},
		Body: []reason.Pattern{{S: "?x", P: "type", O: "root"}},
	}}
	derived := derive(t, []triple{{"r", "type", "root"}, {"s", "type", "leaf"}}, rules)
	if len(derived) != 1 || !derived[triple{"r", "isRoot", "true"}] {
		t.Errorf("derived = %v", derived)
	}
}

func TestDerivedOnlyNew(t *testing.T) {
	// A derivable fact already in the base must not be re-derived.
	base := []triple{
		{"a", "subClassOf", "b"},
		{"b", "subClassOf", "c"},
		{"a", "subClassOf", "c"}, // already present
	}
	if derived := derive(t, base, reason.RDFS()); len(derived) != 0 {
		t.Errorf("derived = %v, want none", derived)
	}
}
