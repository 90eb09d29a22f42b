// Package stats collects per-graph cardinality statistics for the
// cost-based query planner: label and predicate (edge-label) histograms,
// degree distributions, and distinct-value sketches for node properties.
//
// A Stats value is an immutable scan of one graph, stamped with the
// owning store's cache.Epoch read before the scan. The companion Versioned
// publisher serves it while the store has drifted from it by at most a
// sixteenth of what it counted, and rebuilds it with Build past that
// bound. Estimation accessors are nil-safe: a nil *Stats answers
// with uniform textbook assumptions, so the planner degrades to a
// deterministic heuristic rather than branching on availability.
package stats

import (
	"math"
	"sort"
	"sync"
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
	// Epoch is the stable (even) cache.Epoch value read before the scan.
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

// Build scans g and returns its statistics stamped with epoch. It is the
// one producer of statistics. On a quiescent g (an epoch-pinned snapshot,
// or a store no writer touches) the result is exactly g's; a mutation that
// overlaps the scan may or may not be seen, which Versioned counts as
// drift from epoch.
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

// driftDiv bounds how far served statistics may lag the store: they are
// rebuilt once the mutations since their epoch exceed 1/driftDiv of the
// elements they counted. 1/16 is the KMV sketch's own standard error at
// k = 256 (1/sqrt(254), about 6.3 %), so drift inside the bound moves no
// estimate by more than the estimator already errs; and a rebuild, which
// costs O(N + E), comes once per (N + E)/16 mutations, so each mutation
// pays about 16 element visits amortized whatever the graph's size.
const driftDiv = 16

// Versioned publishes the newest Stats of one store. The owner follows the
// cache.Epoch discipline: every mutation bumps the epoch twice under the
// store's write lock, so (epoch - st.Epoch)/2 counts the mutations made
// since st's scan began. Publish keeps the newest epoch and never goes
// backwards.
type Versioned struct {
	cur   atomic.Pointer[Stats]
	floor atomic.Uint64 // statistics stamped before it are never served
	build sync.Mutex    // at most one rebuild at a time
}

// TryGet returns the published statistics iff the mutations between their
// epoch and the given one are within the drift bound:
// (epoch - st.Epoch)/2 <= (st.Nodes + st.Edges)/16. An odd epoch is a
// mutation in flight; it counts once it completes. Statistics stamped
// after epoch are served as they are. nil means a rebuild is needed.
func (v *Versioned) TryGet(epoch uint64) *Stats {
	s := v.cur.Load()
	if s == nil || s.Epoch < v.floor.Load() {
		return nil
	}
	if epoch > s.Epoch && (epoch-s.Epoch)/2 > uint64(s.Nodes+s.Edges)/driftDiv {
		return nil
	}
	return s
}

// Get serves the published statistics while TryGet does, and otherwise
// rebuilds them: Build over g, the live store, stamped with the epoch read
// before the scan (an odd one rounds down to the stable state before the
// mutation in flight), published and returned. A mutation that overlaps
// the scan therefore counts as drift, and the scan need not exclude
// writers. Rebuilds are serialized: a caller that finds one running waits
// for it and serves its result if that is within the bound.
func (v *Versioned) Get(g model.Graph, epoch func() uint64) (*Stats, error) {
	if s := v.TryGet(epoch()); s != nil {
		return s, nil
	}
	v.build.Lock()
	defer v.build.Unlock()
	e := epoch()
	if s := v.TryGet(e); s != nil {
		return s, nil
	}
	s, err := Build(g, e&^1)
	if err != nil {
		return nil, err
	}
	v.Publish(s)
	return s, nil
}

// Invalidate makes every statistics stamped before epoch unservable: for
// wholesale store replacement (transaction rollback restores), which is
// one mutation to the epoch but may change every element. Call it under
// the store's write lock, with the epoch read there.
func (v *Versioned) Invalidate(epoch uint64) { v.floor.Store(epoch) }

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
