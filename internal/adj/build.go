package adj

import (
	"encoding/binary"
	"slices"

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
	// OutEdges returns the IDs of edges whose From is id, in any order.
	// The returned slice is not retained or mutated by the builder.
	OutEdges(id model.NodeID) ([]model.EdgeID, error)
	// InEdges returns the IDs of edges whose To is id, in any order.
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
	s, err := newSnapshot(src, epoch)
	if err != nil {
		return nil, err
	}
	for b := range s.nb {
		if s.nb[b], err = buildNodeBlock(src, uint32(b)); err != nil {
			return nil, err
		}
	}
	for b := range s.eb {
		if s.eb[b], err = buildEdgeBlock(src, uint32(b)); err != nil {
			return nil, err
		}
	}
	s.count()
	return s, nil
}

// newSnapshot sizes the block directories to src's ID high-water marks.
func newSnapshot(src Source, epoch uint64) (*Snapshot, error) {
	maxN, err := src.MaxNodeID()
	if err != nil {
		return nil, err
	}
	maxE, err := src.MaxEdgeID()
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		epoch: epoch,
		nb:    make([]*nodeBlock, blocksFor(uint64(maxN))),
		eb:    make([]*edgeBlock, blocksFor(uint64(maxE))),
	}, nil
}

// count sets order and size from the blocks.
func (s *Snapshot) count() {
	for _, blk := range s.nb {
		if blk != nil {
			s.order += len(blk.nodes)
		}
	}
	for _, blk := range s.eb {
		if blk != nil {
			s.size += len(blk.edges)
		}
	}
}

func buildNodeBlock(src Source, b uint32) (*nodeBlock, error) {
	lo := uint64(b) << blockShift
	var blk nodeBlock
	var locals []uint16
	for off := uint64(0); off < blockSize; off++ {
		id := lo + off
		if id == 0 {
			continue
		}
		n, ok, err := src.NodeByID(model.NodeID(id))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		blk.nodes = append(blk.nodes, n)
		locals = append(locals, uint16(off))
	}
	if len(blk.nodes) == 0 {
		return nil, nil
	}
	blk.dir = makeDirectory(locals)
	var err error
	scratch := make([]model.EdgeID, 0, 16)
	if blk.out, err = encodeRows(src.OutEdges, blk.nodes, &scratch); err != nil {
		return nil, err
	}
	if blk.in, err = encodeRows(src.InEdges, blk.nodes, &scratch); err != nil {
		return nil, err
	}
	return &blk, nil
}

func buildEdgeBlock(src Source, b uint32) (*edgeBlock, error) {
	lo := uint64(b) << blockShift
	var blk edgeBlock
	var locals []uint16
	for off := uint64(0); off < blockSize; off++ {
		id := lo + off
		if id == 0 {
			continue
		}
		e, ok, err := src.EdgeByID(model.EdgeID(id))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		blk.edges = append(blk.edges, e)
		locals = append(locals, uint16(off))
	}
	if len(blk.edges) == 0 {
		return nil, nil
	}
	blk.dir = makeDirectory(locals)
	return &blk, nil
}

// encodeRows builds one CSR direction: per node, the incident edge IDs
// sorted ascending and delta-uvarint encoded behind a uvarint degree.
func encodeRows(incident func(model.NodeID) ([]model.EdgeID, error), nodes []model.Node, scratch *[]model.EdgeID) (rows, error) {
	r := rows{offs: make([]uint32, 1, len(nodes)+1)}
	for i := range nodes {
		eids, err := incident(nodes[i].ID)
		if err != nil {
			return rows{}, err
		}
		r.buf = appendRow(r.buf, eids, scratch)
		r.offs = append(r.offs, uint32(len(r.buf)))
	}
	return r, nil
}

// appendRow encodes one row onto buf. Sorting owns a scratch copy, never
// the Source's slice.
func appendRow(buf []byte, eids []model.EdgeID, scratch *[]model.EdgeID) []byte {
	sc := append((*scratch)[:0], eids...)
	slices.Sort(sc)
	buf = binary.AppendUvarint(buf, uint64(len(sc)))
	prev := uint64(0)
	for _, e := range sc {
		buf = binary.AppendUvarint(buf, uint64(e)-prev)
		prev = uint64(e)
	}
	*scratch = sc
	return buf
}
