package engine

import (
	"gdbm/internal/cache"
	"gdbm/internal/query/plan"
)

// CachedQuery memoizes one statement execution in rc, keyed on (engine
// name, language, statement) at the graph epoch reported by epoch. It
// looks up at the current epoch, executes on a miss, and publishes a
// private copy only if the epoch is unchanged across the execution, so a
// result computed against a partially-applied mutation can never be
// served later; entries written before a mutation are unreachable because
// the mutation bumped the epoch. Results are copied in and copied out, so
// callers may mutate what they receive, and errors are never cached.
//
// Callers must route only statements whose first keyword is a read verb
// (compare ReadOnlyStmt) — replaying a cached mutating statement would skip
// its side effects. The epoch guard is a second line of defense: a
// statement that does mutate the graph bumps the epoch and is therefore
// never published.
func CachedQuery(rc *cache.Results, epoch func() uint64, name, lang, stmt string,
	exec func() (*plan.Result, error)) (*plan.Result, error) {
	if rc == nil {
		return exec()
	}
	fp := cache.Fingerprint(name, lang, stmt)
	e := epoch()
	if v, ok := rc.Get(fp, e); ok {
		return v.(*plan.Result).Clone(), nil
	}
	res, err := exec()
	if err != nil {
		return res, err
	}
	if epoch() == e {
		rc.Put(fp, e, res.Clone(), resultCost(res))
	}
	return res, nil
}

// CachedStream runs one statement of the named engine's language into
// sink through run. A read statement on a Disk with a statement-result
// tier (OpenDiskWithResults) goes through CachedQuery at the kv-layered
// graph's epoch — materialized or hit, then replayed — so streaming never
// bypasses cache coherence; everything else streams straight through run.
// The rows are identical either way.
func CachedStream(d Disk, name, lang, stmt string, read bool, sink plan.Sink,
	run func(plan.Sink) error) error {
	if d.results == nil || !read {
		return run(sink)
	}
	res, err := CachedQuery(d.results, d.kg.Epoch, name, lang, stmt, func() (*plan.Result, error) {
		var c plan.Collector
		if err := run(&c); err != nil {
			return nil, err
		}
		return &c.Res, nil
	})
	if err != nil {
		return err
	}
	return plan.Replay(res, sink)
}

func resultCost(r *plan.Result) int64 {
	c := int64(48)
	for _, col := range r.Cols {
		c += 16 + int64(len(col))
	}
	for _, row := range r.Rows {
		c += 24 + 40*int64(len(row))
	}
	return c
}
