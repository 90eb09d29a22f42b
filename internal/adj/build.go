package adj

import (
	"encoding/binary"
	"fmt"

	"gdbm/internal/model"
)

// Source is the build-time view of a mutable store. Implementations are
// unlocked adapters: the caller (Versioned.Pin's contract) holds the
// store's writer-excluding lock once around the whole render, so Source
// methods must read the underlying structures without taking locks that
// would re-enter it.
//
// IDs are allocated densely from 1 and never reused, so MaxNodeID and
// MaxEdgeID are high-water marks; removed IDs appear as absent.
type Source interface {
	MaxNodeID() (model.NodeID, error)
	MaxEdgeID() (model.EdgeID, error)
	// NodeByID returns the record for id and whether it exists.
	NodeByID(id model.NodeID) (model.Node, bool, error)
	// EdgeByID returns the record for id and whether it exists.
	EdgeByID(id model.EdgeID) (model.Edge, bool, error)
	// OutEdges returns the IDs of edges whose From is id, strictly
	// ascending: the order the store's own Neighbors yields them in, which
	// the snapshot keeps. The builder neither retains nor mutates the
	// slice, and refuses a list that does not ascend.
	OutEdges(id model.NodeID) ([]model.EdgeID, error)
	// InEdges returns the IDs of edges whose To is id, likewise.
	InEdges(id model.NodeID) ([]model.EdgeID, error)
}

func blocksFor(max uint64) int {
	if max == 0 {
		return 0
	}
	return int(max>>blockShift) + 1
}

// Build renders every block of src from scratch at the given stable epoch:
// the first publish of a store, the render after MarkAll, and the
// reference the incremental path (patch.go) is tested against.
func Build(src Source, epoch uint64) (*Snapshot, error) {
	maxN, maxE, err := highWater(src)
	if err != nil {
		return nil, err
	}
	s := newSnapshot(epoch, maxN, maxE)
	for b := range s.nb {
		if s.nb[b], err = patchNodeBlock(src, b, nil, upTo(b, maxN)); err != nil {
			return nil, err
		}
	}
	for b := range s.eb {
		if s.eb[b], err = patchEdgeBlock(src, b, nil, upTo(b, maxE)); err != nil {
			return nil, err
		}
	}
	s.count()
	return s, nil
}

// highWater reads src's ID high-water marks.
func highWater(src Source) (maxN, maxE uint64, err error) {
	n, err := src.MaxNodeID()
	if err != nil {
		return 0, 0, err
	}
	e, err := src.MaxEdgeID()
	return uint64(n), uint64(e), err
}

// newSnapshot sizes the block tables to the ID high-water marks.
func newSnapshot(epoch, maxN, maxE uint64) *Snapshot {
	return &Snapshot{
		epoch: epoch,
		nb:    make([]*nodeBlock, blocksFor(maxN)),
		eb:    make([]*edgeBlock, blocksFor(maxE)),
	}
}

// upTo marks every slot of block b whose ID is at most hi: a render from
// scratch.
func upTo(b int, hi uint64) *[blockSize]mark {
	var marks [blockSize]mark
	for i := range marks {
		if uint64(b)<<blockShift+uint64(i) <= hi {
			marks[i] = markRec | markOut | markIn
		}
	}
	return &marks
}

// count sets order and size from the blocks' live counts.
func (s *Snapshot) count() {
	for _, blk := range s.nb {
		if blk != nil {
			s.order += blk.live
		}
	}
	for _, blk := range s.eb {
		if blk != nil {
			s.size += blk.live
		}
	}
}

// appendRow encodes one row onto buf: the degree, then the IDs as deltas.
// The IDs must ascend strictly, as the Source contract states.
func appendRow(buf []byte, eids []model.EdgeID) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(eids)))
	prev := model.EdgeID(0)
	for _, e := range eids {
		if e <= prev {
			return buf, fmt.Errorf("incident edge %d listed after %d: lists must ascend strictly", e, prev)
		}
		buf = binary.AppendUvarint(buf, uint64(e-prev))
		prev = e
	}
	return buf, nil
}
