// Package obs is the observability substrate of the workbench: a
// lock-cheap metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms), per-query span tracing carried through
// context.Context, and a slow-query log rendered through the vfs seam.
//
// The package is zero-dependency (standard library plus the repo's own
// vfs seam) and nil-safe throughout: a nil *Registry hands out nil
// collectors, and every collector and trace method is a cheap no-op on a
// nil receiver. Instrumented code therefore needs no "observability off"
// branches — it records unconditionally, and when nothing is listening
// the records cost one nil check.
//
// The cardinal rule, enforced by the differential twins in
// internal/enginetest/diff, is that observation never changes answers:
// tracing on and tracing off must render byte-identical query results.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a valid no-op sink.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge is a valid no-op sink.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the histogram bounds used when none are given:
// a 1-2.5-5 ladder from one microsecond to ten seconds, in nanoseconds.
var DefaultLatencyBuckets = []int64{
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000, 100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
}

// Histogram counts observations into fixed buckets chosen at construction.
// Bucket i holds observations v with bounds[i-1] < v <= bounds[i]; one
// overflow bucket past the last bound catches the rest. Observations are
// a single atomic increment; a nil *Histogram is a valid no-op sink.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	count  atomic.Uint64
	sum    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := append([]int64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d", i))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a consistent-enough copy of a histogram's state:
// each field is read atomically, so concurrent observers may skew the
// totals by in-flight observations but never corrupt them.
type HistogramSnapshot struct {
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"` // len(Bounds)+1, last is overflow
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
}

// Snapshot copies the histogram's current state; zero-valued on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry hands out named collectors. Lookup takes a read lock only;
// creation upgrades to the write lock once per name. A nil *Registry
// returns nil collectors, which are themselves no-op sinks, so code can
// thread an optional registry without branching.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds (DefaultLatencyBuckets when none) on first use. Later calls
// return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// Counters returns a sorted-key snapshot of every counter's value.
func (r *Registry) Counters() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Render prints the registry one collector per line, sorted by name —
// the \stats surface of gdbshell.
func (r *Registry) Render() string {
	if r == nil {
		return ""
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s = %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s = %d", name, g.Value()))
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		mean := int64(0)
		if s.Count > 0 {
			mean = s.Sum / int64(s.Count)
		}
		lines = append(lines, fmt.Sprintf("histogram %s: count=%d sum=%d mean=%d", name, s.Count, s.Sum, mean))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
