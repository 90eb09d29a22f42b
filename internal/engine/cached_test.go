package engine

import (
	"errors"
	"reflect"
	"testing"

	"gdbm/internal/cache"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// counted is a statement executor that returns a fresh two-row result and
// counts its runs; a run that CachedQuery served from the cache leaves the
// count alone.
type counted struct {
	runs int
	err  error
	// during, when set, runs inside the execution (a concurrent mutation).
	during func()
}

func (c *counted) exec() (*plan.Result, error) {
	c.runs++
	if c.during != nil {
		c.during()
	}
	if c.err != nil {
		return nil, c.err
	}
	return &plan.Result{
		Cols: []string{"n"},
		Rows: [][]model.Value{{model.Int(1)}, {model.Int(2)}},
	}, nil
}

func TestCachedQueryMissPublishes(t *testing.T) {
	rc := cache.NewResults(1 << 16)
	var ep cache.Epoch
	c := &counted{}
	for i := 0; i < 3; i++ {
		res, err := CachedQuery(rc, ep.Current, "e", "gql", "MATCH (a) RETURN a", c.exec)
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("call %d: %v, %v", i, res, err)
		}
	}
	if c.runs != 1 {
		t.Fatalf("executed %d times, want 1 (a miss publishes, later calls hit)", c.runs)
	}
	if s := rc.Stats(); s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 2 hits, 1 miss, 1 entry", s)
	}

	// The key is (engine, language, statement) at the epoch: another
	// statement, or the same one after a mutation, executes again.
	CachedQuery(rc, ep.Current, "e", "gql", "MATCH (b) RETURN b", c.exec)
	ep.Bump()
	ep.Bump()
	CachedQuery(rc, ep.Current, "e", "gql", "MATCH (a) RETURN a", c.exec)
	if c.runs != 3 {
		t.Fatalf("executed %d times, want 3", c.runs)
	}
}

func TestCachedQueryEpochMovedNotPublished(t *testing.T) {
	rc := cache.NewResults(1 << 16)
	var ep cache.Epoch
	c := &counted{during: func() { ep.Bump() }}
	for i := 0; i < 2; i++ {
		if _, err := CachedQuery(rc, ep.Current, "e", "gql", "s", c.exec); err != nil {
			t.Fatal(err)
		}
	}
	if c.runs != 2 {
		t.Fatalf("executed %d times, want 2: a result computed while the epoch moved was published", c.runs)
	}
	if s := rc.Stats(); s.Entries != 0 || s.Hits != 0 {
		t.Fatalf("stats %+v, want no entries and no hits", s)
	}
}

func TestCachedQueryHitIsPrivateClone(t *testing.T) {
	rc := cache.NewResults(1 << 16)
	var ep cache.Epoch
	c := &counted{}
	miss, _ := CachedQuery(rc, ep.Current, "e", "gql", "s", c.exec)
	hit, _ := CachedQuery(rc, ep.Current, "e", "gql", "s", c.exec)
	want := &plan.Result{Cols: []string{"n"}, Rows: [][]model.Value{{model.Int(1)}, {model.Int(2)}}}
	// Callers own what they receive, on a miss and on a hit alike.
	for _, r := range []*plan.Result{miss, hit} {
		r.Cols[0] = "changed"
		r.Rows[0][0] = model.Str("changed")
		r.Rows = r.Rows[:1]
	}
	again, _ := CachedQuery(rc, ep.Current, "e", "gql", "s", c.exec)
	if c.runs != 1 {
		t.Fatalf("executed %d times, want 1", c.runs)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("entry changed through a handed-out result: %+v", again)
	}
}

func TestCachedQueryErrorNotCached(t *testing.T) {
	rc := cache.NewResults(1 << 16)
	var ep cache.Epoch
	boom := errors.New("boom")
	c := &counted{err: boom}
	for i := 0; i < 2; i++ {
		if _, err := CachedQuery(rc, ep.Current, "e", "gql", "s", c.exec); !errors.Is(err, boom) {
			t.Fatalf("call %d: err %v, want boom", i, err)
		}
	}
	if c.runs != 2 || rc.Stats().Entries != 0 {
		t.Fatalf("runs %d, stats %+v: an error was cached", c.runs, rc.Stats())
	}
}

func TestCachedQueryNilCacheExecutes(t *testing.T) {
	c := &counted{}
	for i := 0; i < 2; i++ {
		if _, err := CachedQuery(nil, func() uint64 { return 0 }, "e", "gql", "s", c.exec); err != nil {
			t.Fatal(err)
		}
	}
	if c.runs != 2 {
		t.Fatalf("executed %d times without a cache, want 2", c.runs)
	}
}

func TestSplitCacheBudget(t *testing.T) {
	for _, total := range []int64{1, 2, 3, 4, 7, 1000, 1 << 20, 32<<20 + 3} {
		page, results := SplitCacheBudget(total)
		if page+results != total {
			t.Fatalf("SplitCacheBudget(%d) = %d + %d, want a sum of %d", total, page, results, total)
		}
		if want := total - total/2 - total/4; results != want {
			t.Fatalf("SplitCacheBudget(%d) results = %d, want the quarter %d", total, results, want)
		}
	}
	for _, total := range []int64{0, -1, -1 << 20} {
		if page, results := SplitCacheBudget(total); page != 0 || results != 0 {
			t.Fatalf("SplitCacheBudget(%d) = %d, %d, want 0, 0", total, page, results)
		}
	}
}
