package suite

import (
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/engine/capability"
)

// TestCacheBudgetIsWholeAcrossTiers holds Options.CacheBytes to the two
// cache tiers: every engine that can use a data directory, opened with one
// and a 1 MiB budget, reports a "page" tier and, exactly when it has a
// query language, a "results" tier funded with SplitCacheBudget's quarter;
// the tier budgets sum to the whole budget. Its in-memory configuration,
// where the profile allows one, reports no tier even when given a budget.
func TestCacheBudgetIsWholeAcrossTiers(t *testing.T) {
	const budget = 1 << 20
	_, resultsB := engine.SplitCacheBudget(budget)
	ran := 0
	for _, name := range engine.Names() {
		if !capability.AllowsDir(name) {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			e, err := engine.Open(name, engine.Options{Dir: t.TempDir(), CacheBytes: budget})
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			defer e.Close()
			cs, ok := e.(engine.CacheStatser)
			if !ok {
				t.Fatalf("%s exposes no CacheStats", name)
			}
			tiers := cs.CacheStats()
			_, querier := e.(engine.Querier)
			res, hasResults := tiers["results"]
			var sum int64
			for _, s := range tiers {
				sum += s.BudgetBytes
			}
			want := 1
			if querier {
				want = 2
			}
			if _, hasPage := tiers["page"]; !hasPage || hasResults != querier || len(tiers) != want {
				t.Fatalf("%s with Dir: CacheStats = %+v, want a page tier and, with a query language (%v), a results tier",
					name, tiers, querier)
			}
			if sum != budget || (hasResults && res.BudgetBytes != resultsB) {
				t.Fatalf("%s with Dir: tier budgets %+v sum to %d, want %d with %d to results",
					name, tiers, sum, budget, resultsB)
			}
			if capability.NeedsDir(name) {
				return
			}
			m, err := engine.Open(name, engine.Options{CacheBytes: budget})
			if err != nil {
				t.Fatalf("open %s in memory: %v", name, err)
			}
			defer m.Close()
			if tiers := m.(engine.CacheStatser).CacheStats(); len(tiers) != 0 {
				t.Fatalf("%s in memory: CacheStats = %+v, want no tiers", name, tiers)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no registered engine allows a data directory")
	}
}
