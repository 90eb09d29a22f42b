package adj

import (
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// This file is the planning surface the snapshotting stores share:
// epoch-keyed cardinality statistics for the cost-based planner, served
// from the store's pinned snapshot, so they see exactly one stable epoch
// and never block writers.

// partial returns the block's statistics, computed on first use. Blocks
// are immutable, so the result is too; racing first uses store equal
// values.
func (b *nodeBlock) partial() *stats.Partial {
	if p := b.part.Load(); p != nil {
		return p
	}
	p := stats.NodePartial(b.nodes, func(i int) int { return b.out.degree(i) + b.in.degree(i) })
	b.part.Store(p)
	return p
}

func (b *edgeBlock) partial() *stats.Partial {
	if p := b.part.Load(); p != nil {
		return p
	}
	p := stats.EdgePartial(b.edges)
	b.part.Store(p)
	return p
}

// Stats folds the per-block partials into the snapshot's statistics:
// exactly stats.Build(s, s.Epoch()), at the cost of the blocks whose
// partial is not yet computed — after a write, the patched ones.
func (s *Snapshot) Stats() *stats.Stats {
	parts := make([]*stats.Partial, 0, len(s.nb)+len(s.eb))
	for _, blk := range s.nb {
		if blk != nil {
			parts = append(parts, blk.partial())
		}
	}
	for _, blk := range s.eb {
		if blk != nil {
			parts = append(parts, blk.partial())
		}
	}
	return stats.Merge(s.epoch, parts)
}

// Acquire is a store's AcquireView or an engine's AcquireSnapshot.
type Acquire func() (model.Graph, model.ReleaseFunc, error)

// PlanStats implements a store's stats.Provider over its view: the
// statistics published for the pinned snapshot's epoch, folded and
// published first if a mutation made the last ones unreachable. Rebuilds
// race harmlessly: Publish keeps the newest epoch. A view that is not a
// Snapshot has no statistics (nil, nil).
func PlanStats(acquire Acquire, pub *stats.Versioned) (*stats.Stats, error) {
	g, release, err := acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	snap, ok := g.(*Snapshot)
	if !ok {
		return nil, nil
	}
	if st := pub.TryGet(snap.epoch); st != nil {
		return st, nil
	}
	st := snap.Stats()
	pub.Publish(st)
	return st, nil
}
