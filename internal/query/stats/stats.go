// Package stats collects per-graph cardinality statistics for the
// cost-based query planner: label and predicate (edge-label) histograms,
// degree distributions, and distinct-value sketches for node properties.
//
// A Stats value is an immutable snapshot of one stable graph epoch. The
// companion Versioned publisher keys freshness on the owning store's
// cache.Epoch double-bump discipline: every mutation bumps the epoch twice
// under the store's write lock, so a Stats built at epoch E is served only
// while the store still reads E — a stale histogram is unreachable by
// construction, exactly the invalidation-free contract the caching layer
// established. Estimation accessors are nil-safe: a nil *Stats answers
// with uniform textbook assumptions, so the planner degrades to a
// deterministic heuristic rather than branching on availability.
package stats

import (
	"math"
	"sort"
	"sync/atomic"

	"gdbm/internal/model"
)

// Provider is implemented by stores and engine cores that can produce
// statistics current at a stable epoch. A (nil, nil) return means the
// surface exists but no statistics are collectable for this instance (the
// planner then falls back to the declaration-order greedy plan).
type Provider interface {
	PlanStats() (*Stats, error)
}

// DegBuckets is the number of log2 degree-histogram buckets: bucket i
// counts nodes whose Both-direction degree d satisfies 2^i <= d+1 < 2^(i+1).
const DegBuckets = 32

// defaults used by the nil-Stats uniform model: a mid-sized graph with
// textbook selectivities. Chosen once so every caller degrades identically.
const (
	defaultNodes    = 1000.0
	defaultFanout   = 4.0
	defaultPropSel  = 0.1
	defaultLabelSel = 0.2
)

// Stats is an immutable statistics snapshot of one graph epoch.
type Stats struct {
	// Epoch is the stable (even) cache.Epoch value the snapshot renders.
	Epoch uint64
	// Nodes and Edges are the total entity counts.
	Nodes int
	Edges int
	// NodeLabel and EdgeLabel count entities per label. The empty label
	// counts entities stored without one.
	NodeLabel map[string]int
	EdgeLabel map[string]int
	// DegHist is the log2 histogram of Both-direction node degrees.
	DegHist [DegBuckets]int
	// distinct maps label+"\x00"+prop to a KMV distinct-value sketch; the
	// empty label aggregates across all labels.
	distinct map[string]*KMV
}

// Build scans g and returns its statistics stamped with epoch. The caller
// is responsible for epoch stability (read it under the store's mutation
// exclusion, or build from an epoch-pinned snapshot).
func Build(g model.Graph, epoch uint64) (*Stats, error) {
	s := &Stats{
		Epoch:     epoch,
		NodeLabel: map[string]int{},
		EdgeLabel: map[string]int{},
		distinct:  map[string]*KMV{},
	}
	sketch := func(label, prop string, v model.Value) {
		key := label + "\x00" + prop
		k := s.distinct[key]
		if k == nil {
			k = NewKMV(0)
			s.distinct[key] = k
		}
		k.AddValue(v)
	}
	degrees := map[model.NodeID]int{}
	err := g.Nodes(func(n model.Node) bool {
		s.Nodes++
		s.NodeLabel[n.Label]++
		for prop, v := range n.Props {
			sketch(n.Label, prop, v)
			if n.Label != "" {
				sketch("", prop, v)
			}
		}
		degrees[n.ID] = 0
		return true
	})
	if err != nil {
		return nil, err
	}
	err = g.Edges(func(e model.Edge) bool {
		s.Edges++
		s.EdgeLabel[e.Label]++
		degrees[e.From]++
		degrees[e.To]++
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, d := range degrees {
		s.DegHist[degBucket(d)]++
	}
	return s, nil
}

func degBucket(d int) int {
	b := 0
	for v := d + 1; v > 1 && b < DegBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// CountNodes estimates the number of nodes carrying label ("" = all).
func (s *Stats) CountNodes(label string) float64 {
	if s == nil {
		if label == "" {
			return defaultNodes
		}
		return defaultNodes * defaultLabelSel
	}
	if label == "" {
		return float64(s.Nodes)
	}
	return float64(s.NodeLabel[label])
}

// Fanout estimates the expected number of incident edges with the given
// label ("" = any) per node in direction dir — the expansion factor of one
// Expand step.
func (s *Stats) Fanout(label string, dir model.Direction) float64 {
	var f float64
	if s == nil {
		f = defaultFanout
		if label != "" {
			f *= defaultLabelSel
		}
	} else {
		n := float64(s.Nodes)
		if n < 1 {
			return 0
		}
		if label == "" {
			f = float64(s.Edges) / n
		} else {
			f = float64(s.EdgeLabel[label]) / n
		}
	}
	if dir == model.Both {
		f *= 2
	}
	return f
}

// PropSelectivity estimates the fraction of label-carrying nodes that
// match an equality predicate on prop, as 1/distinct(label, prop) from the
// KMV sketch, clamped to [1/count, 1]. Unknown (label, prop) pairs answer
// 1/count — an equality on a never-seen property matches at most the one
// node the planner should still plan for.
func (s *Stats) PropSelectivity(label, prop string) float64 {
	if s == nil {
		return defaultPropSel
	}
	count := s.CountNodes(label)
	if count < 1 {
		return 1
	}
	k := s.distinct[label+"\x00"+prop]
	if k == nil {
		return 1 / count
	}
	d := k.Distinct()
	if d < 1 {
		d = 1
	}
	sel := 1 / d
	if min := 1 / count; sel < min {
		sel = min
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// --- KMV distinct-value sketch ---

// kmvK is the default sketch size: the k smallest distinct 64-bit value
// hashes. Standard KMV error is ~1/sqrt(k-2) — about 6% at 256 — plenty
// for order-of-magnitude cost estimation.
const kmvK = 256

// KMV estimates distinct-value counts from the k minimum hash values.
// Below k observed distinct hashes it is exact.
type KMV struct {
	k  int
	hs []uint64 // sorted ascending, distinct
}

// NewKMV returns a sketch of size k (<=0 selects the default).
func NewKMV(k int) *KMV {
	if k <= 0 {
		k = kmvK
	}
	return &KMV{k: k}
}

// AddValue folds one property value into the sketch.
func (m *KMV) AddValue(v model.Value) {
	var buf [32]byte
	m.Add(hashKey(v.EncodeKey(buf[:0])))
}

// hashKey is 64-bit FNV-1a of an encoded value passed through a
// splitmix64 finalizer: KMV's estimator is an order statistic over the
// full 64-bit range, and raw FNV of short, similar keys is not uniform
// enough in the high bits.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return mix64(h)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add folds one pre-hashed observation into the sketch.
func (m *KMV) Add(h uint64) {
	i := sort.Search(len(m.hs), func(i int) bool { return m.hs[i] >= h })
	if i < len(m.hs) && m.hs[i] == h {
		return
	}
	if len(m.hs) >= m.k {
		if h >= m.hs[len(m.hs)-1] {
			return
		}
		m.hs = m.hs[:len(m.hs)-1]
		i = sort.Search(len(m.hs), func(i int) bool { return m.hs[i] >= h })
	}
	m.hs = append(m.hs, 0)
	copy(m.hs[i+1:], m.hs[i:])
	m.hs[i] = h
}

// Distinct estimates the number of distinct values observed.
func (m *KMV) Distinct() float64 {
	if len(m.hs) < m.k {
		return float64(len(m.hs))
	}
	// Saturated: (k-1) / normalized k-th minimum.
	frac := float64(m.hs[len(m.hs)-1]) / float64(math.MaxUint64)
	if frac <= 0 {
		return float64(len(m.hs))
	}
	return float64(m.k-1) / frac
}

// --- Versioned publisher ---

// Versioned publishes one Stats per stable graph epoch. The owner follows
// the same discipline as adj.Versioned: mutations double-bump the epoch
// under the write lock, so TryGet's equality check against a currently-read
// epoch is exactly the staleness test. Publish keeps the newest epoch and
// never goes backwards, making concurrent rebuild races harmless.
type Versioned struct {
	cur atomic.Pointer[Stats]
}

// TryGet returns the published statistics iff they render exactly the
// given epoch and the epoch is stable (even); nil means a rebuild is
// needed.
func (v *Versioned) TryGet(epoch uint64) *Stats {
	if epoch&1 == 1 { // mid-mutation; the writer will bump again
		return nil
	}
	s := v.cur.Load()
	if s == nil || s.Epoch != epoch {
		return nil
	}
	return s
}

// Publish installs s unless a same-or-newer epoch is already published.
func (v *Versioned) Publish(s *Stats) {
	for {
		old := v.cur.Load()
		if old != nil && old.Epoch >= s.Epoch {
			return
		}
		if v.cur.CompareAndSwap(old, s) {
			return
		}
	}
}
