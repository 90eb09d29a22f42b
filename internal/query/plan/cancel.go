package plan

import (
	"context"

	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// cancelStride is how many streamed records pass between context checks.
// A power of two keeps the check a mask-and-branch; 64 keeps worst-case
// overrun after cancellation to a handful of microseconds of scan work.
const cancelStride = 64

// WithCancel wraps src so that long scans observe ctx: every streaming
// read (Nodes, Edges, Neighbors, IndexedNodes) re-checks ctx once per
// cancelStride records and aborts with ctx.Err() once the context is
// done. Point reads check on entry. Contexts that can never be cancelled
// (ctx.Done() == nil, e.g. context.Background()) return src unchanged, so
// the untimed path pays nothing.
//
// The wrapper is the query executor's half of the deadline contract: the
// operators of this package stream rows through a Source, so a deadline
// threaded into the Source interrupts every operator without each one
// knowing about contexts.
func WithCancel(ctx context.Context, src Source) Source {
	if ctx.Done() == nil {
		return src
	}
	return &cancelSource{src: src, ctx: ctx}
}

// cancelSource decorates a Source with periodic context checks. Query
// execution is single-goroutine, so the stride counter needs no locking.
type cancelSource struct {
	src Source
	ctx context.Context
	n   uint
}

// tick reports the context error, checking it once per cancelStride calls
// (and always on the first).
func (c *cancelSource) tick() error {
	c.n++
	if c.n%cancelStride == 1 {
		return c.ctx.Err()
	}
	return nil
}

func (c *cancelSource) Order() int { return c.src.Order() }
func (c *cancelSource) Size() int  { return c.src.Size() }

func (c *cancelSource) Node(id model.NodeID) (model.Node, error) {
	if err := c.tick(); err != nil {
		return model.Node{}, err
	}
	return c.src.Node(id)
}

func (c *cancelSource) Edge(id model.EdgeID) (model.Edge, error) {
	if err := c.tick(); err != nil {
		return model.Edge{}, err
	}
	return c.src.Edge(id)
}

func (c *cancelSource) Degree(id model.NodeID, dir model.Direction) (int, error) {
	if err := c.tick(); err != nil {
		return 0, err
	}
	return c.src.Degree(id, dir)
}

// stream adapts one streaming read: fn's false return already stops the
// underlying iteration, so a pending context error is smuggled out through
// the stop path and surfaced as the call's error.
func (c *cancelSource) stream(run func(stop func() bool) error) error {
	var ctxErr error
	err := run(func() bool {
		if e := c.tick(); e != nil {
			ctxErr = e
			return false
		}
		return true
	})
	if ctxErr != nil {
		return ctxErr
	}
	return err
}

func (c *cancelSource) Nodes(fn func(model.Node) bool) error {
	return c.stream(func(stop func() bool) error {
		return c.src.Nodes(func(n model.Node) bool {
			if !stop() {
				return false
			}
			return fn(n)
		})
	})
}

func (c *cancelSource) Edges(fn func(model.Edge) bool) error {
	return c.stream(func(stop func() bool) error {
		return c.src.Edges(func(e model.Edge) bool {
			if !stop() {
				return false
			}
			return fn(e)
		})
	})
}

func (c *cancelSource) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	return c.stream(func(stop func() bool) error {
		return c.src.Neighbors(id, dir, func(e model.Edge, n model.Node) bool {
			if !stop() {
				return false
			}
			return fn(e, n)
		})
	})
}

// SortedNeighborIDs keeps the intersection operator cancellable: the list
// is collected through the wrapper itself, so it ticks once per id pair
// (or per record, where the source has no id adjacency) as every other
// scan does.
func (c *cancelSource) SortedNeighborIDs(id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	return sortedNeighborIDs(c, id, dir, label)
}

// AppendNeighborIDs forwards the id-adjacency capability — the served path
// always runs under WithCancel, so without it no statement would reach the
// native lists — without ticking: eachNeighbor ticks per pair it hands on.
func (c *cancelSource) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	if ia, ok := c.src.(model.IDAdjacency); ok {
		return ia.AppendNeighborIDs(buf, id, dir, label)
	}
	return buf, false, nil
}

// PlanStats forwards the statistics capability so plan selection sees
// through the cancellation wrapper.
func (c *cancelSource) PlanStats() (*stats.Stats, error) {
	if sp, ok := c.src.(stats.Provider); ok {
		return sp.PlanStats()
	}
	return nil, nil
}

func (c *cancelSource) IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (bool, error) {
	var handled bool
	err := c.stream(func(stop func() bool) error {
		var innerErr error
		handled, innerErr = c.src.IndexedNodes(label, prop, v, func(n model.Node) bool {
			if !stop() {
				return false
			}
			return fn(n)
		})
		return innerErr
	})
	return handled, err
}
