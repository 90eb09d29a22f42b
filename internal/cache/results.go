package cache

import "hash/fnv"

// resultKey identifies one memoized answer: a query fingerprint at a graph
// epoch. Mutations bump the epoch, so every entry written before them is
// unreachable by construction — there is no explicit invalidation.
type resultKey struct {
	fp    uint64
	epoch uint64
}

// Results is the statement-result cache. Keys are (fingerprint, epoch);
// the fingerprint encodes the engine, the query language and the statement
// text (see Fingerprint). Values are opaque to the cache; the caller prices each
// entry, and is responsible for storing/returning values that later
// mutation by its callers cannot corrupt (copy-in/copy-out).
type Results struct {
	c *Clock[resultKey, costed]
}

type costed struct {
	v    any
	cost int64
}

// NewResults returns a result cache bounded by budget bytes; a
// non-positive budget disables it.
func NewResults(budget int64) *Results {
	return &Results{c: NewClock[resultKey, costed](budget, func(_ resultKey, cv costed) int64 {
		return 64 + cv.cost
	})}
}

// Fingerprint hashes the parts identifying one query — by convention
// (engine, language, statement) — into a cache key component with FNV-1a.
func Fingerprint(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte{0}) // separator so ("ab","c") != ("a","bc")
		h.Write([]byte(p))
	}
	return h.Sum64()
}

// Get returns the answer cached for fingerprint fp at the given epoch.
func (r *Results) Get(fp, epoch uint64) (any, bool) {
	cv, ok := r.c.Get(resultKey{fp, epoch})
	if !ok {
		return nil, false
	}
	return cv.v, true
}

// Put caches v under (fp, epoch) with the given byte cost estimate.
func (r *Results) Put(fp, epoch uint64, v any, cost int64) {
	r.c.Put(resultKey{fp, epoch}, costed{v: v, cost: cost})
}

// Stats returns a snapshot of the counters.
func (r *Results) Stats() Stats { return r.c.Stats() }
