package engine

import (
	"path/filepath"

	"gdbm/internal/cache"
	"gdbm/internal/kvgraph"
	"gdbm/internal/storage/kv"
)

// CacheStatser is implemented by engines that expose their cache counters,
// keyed by tier: "page", the pager's buffer pool, and "results", the
// statement-result cache of OpenDiskWithResults. An in-memory
// configuration reports none.
type CacheStatser interface {
	CacheStats() map[string]cache.Stats
}

// Disk is an engine's storage shell: the Table I decision of where the
// graph lives. The zero value is the in-memory configuration; OpenDisk
// returns one over a page file. Engines embed it for Flush, Close and
// CacheStats, and CachedStream serves their read statements through its
// statement-result tier when it has one.
type Disk struct {
	d       *kv.Disk
	kg      *kvgraph.Graph
	results *cache.Results // nil without a statement-result tier
}

// OpenDisk opens the page file Dir/file with the options' PoolPages,
// CacheBytes, FS and Metrics, and returns it with a kv-layered graph over
// it that reports into Metrics. The whole of CacheBytes goes to the page
// cache. The caller owns the Disk and must Close it.
func OpenDisk(opts Options, file string) (Disk, *kvgraph.Graph, error) {
	d, err := kv.OpenDiskWith(filepath.Join(opts.Dir, file), kv.DiskOptions{
		PoolPages: opts.PoolPages, CacheBytes: opts.CacheBytes, FS: opts.FS, Metrics: opts.Metrics,
	})
	if err != nil {
		return Disk{}, nil, err
	}
	g := kvgraph.New(d)
	g.SetMetrics(opts.Metrics)
	return Disk{d: d, kg: g}, g, nil
}

// OpenDiskWithResults is OpenDisk for engines with a query language: it
// splits CacheBytes between the page cache and a statement-result cache
// (SplitCacheBudget), which CachedStream keys on the graph's epoch.
func OpenDiskWithResults(opts Options, file string) (Disk, *kvgraph.Graph, error) {
	pageB, resB := SplitCacheBudget(opts.CacheBytes)
	opts.CacheBytes = pageB
	d, g, err := OpenDisk(opts, file)
	if err == nil && resB > 0 {
		d.results = cache.NewResults(resB)
	}
	return d, g, err
}

// Flush implements Persistent: it forces the page file to stable storage.
func (s Disk) Flush() error {
	if s.d == nil {
		return nil
	}
	return s.d.Flush()
}

// Close releases the page file.
func (s Disk) Close() error {
	if s.d == nil {
		return nil
	}
	return s.d.Close()
}

// CacheStats implements CacheStatser: the page tier and, when there is
// one, the statement-result tier; their budgets sum to Options.CacheBytes.
func (s Disk) CacheStats() map[string]cache.Stats {
	out := map[string]cache.Stats{}
	if s.d != nil {
		out["page"] = s.d.CacheStats()
	}
	if s.results != nil {
		out["results"] = s.results.Stats()
	}
	return out
}
