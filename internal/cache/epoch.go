package cache

import "sync/atomic"

// Epoch is a graph-version counter. Every mutation of the owning store
// bumps it twice — once on entry and once on exit, both while holding the
// store's mutation lock — so any read that overlaps a mutation observes
// different epochs before and after its computation and refuses to publish
// a cache entry. Reads that see a stable epoch ran against a quiescent
// store, and entries keyed on that epoch are valid for exactly as long as
// it remains current.
//
// The counter wraps around at 2^64 like any uint64. A stale entry could
// only be resurrected by a key colliding across a full wrap — 2^63
// mutations between the entry's write and the colliding read — which
// budget-pressure eviction makes unreachable in practice long before;
// the wraparound test pins the behavior at the boundary.
type Epoch struct {
	n atomic.Uint64
}

// Bump advances the epoch and returns the new value.
func (e *Epoch) Bump() uint64 { return e.n.Add(1) }

// Current returns the current epoch.
func (e *Epoch) Current() uint64 { return e.n.Load() }
