// Package cache is the versioned caching layer of the storage stack: a
// fixed-budget CLOCK (second-chance) cache, the bare CLOCK eviction policy
// the pager's buffer pool uses, a per-graph epoch counter, and the
// statement-result cache built on them.
//
// Invalidation contract (see DESIGN.md "Caching contract"): nothing in this
// package is ever invalidated in place. Cached entries are keyed on the
// owning graph's epoch, every mutation bumps the epoch on entry AND on
// exit, and readers only publish an entry when the epoch they observed
// before computing it is still current afterwards. Stale entries are
// therefore unreachable by construction and age out under budget pressure;
// a cached answer can only ever be one a fresh computation would return.
package cache

// Stats is a point-in-time snapshot of one cache layer's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Entries and UsedBytes describe current occupancy; BudgetBytes is the
	// configured ceiling (0 means the layer is disabled).
	Entries     int   `json:"entries"`
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}
