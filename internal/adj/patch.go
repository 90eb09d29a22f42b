package adj

import (
	"encoding/binary"
	"fmt"
	"slices"

	"gdbm/internal/model"
)

// This file is the incremental render: the cost of publishing the snapshot
// after a mutation is proportional to the records the mutation touched,
// not to the graph. A dirty block is a clone of its predecessor's slots
// with the marked ones re-read from the Source; a CSR direction none of
// whose rows is marked is shared with the predecessor by pointer, and
// otherwise only its marked rows are re-read, the rest copied byte for
// byte. The predecessor is never written, so snapshots pinned before the
// mutation keep rendering their own epoch.

// mark says which parts of a dirty record's slot must be re-read. Edges
// only ever carry markRec.
type mark uint8

const (
	markRec mark = 1 << iota // record added, removed or changed
	markOut                  // node's out row gained or lost an edge
	markIn                   // node's in row gained or lost an edge
)

// byBlock groups dirty marks by block number, each group indexed by slot.
func byBlock[ID ~uint64](dirty map[ID]mark) map[int]*[blockSize]mark {
	groups := make(map[int]*[blockSize]mark)
	for id, m := range dirty {
		b := int(uint64(id) >> blockShift)
		if groups[b] == nil {
			groups[b] = new([blockSize]mark)
		}
		groups[b][uint64(id)&blockMask] = m
	}
	return groups
}

// patch renders src at epoch from its predecessor: blocks without a dirty
// ID are shared by pointer, the others are patched slot by slot. The
// dirty sets must name every record and row that changed since prev was
// rendered (the Versioned marking rules).
func (prev *Snapshot) patch(src Source, epoch uint64, dirtyN map[model.NodeID]mark, dirtyE map[model.EdgeID]mark) (*Snapshot, error) {
	maxN, maxE, err := highWater(src)
	if err != nil {
		return nil, err
	}
	s := newSnapshot(epoch, maxN, maxE)
	copy(s.nb, prev.nb)
	copy(s.eb, prev.eb)
	for b, marks := range byBlock(dirtyN) {
		if b >= len(s.nb) {
			continue
		}
		if s.nb[b], err = patchNodeBlock(src, b, s.nb[b], marks); err != nil {
			return nil, err
		}
	}
	for b, marks := range byBlock(dirtyE) {
		if b >= len(s.eb) {
			continue
		}
		if s.eb[b], err = patchEdgeBlock(src, b, s.eb[b], marks); err != nil {
			return nil, err
		}
	}
	s.count()
	return s, nil
}

// patchNodeBlock renders node block b from prev (all vacant when nil):
// its slots are copied and those marks names re-read, and each CSR
// direction is spliced (spliceRows). A block left with no live slot is nil.
func patchNodeBlock(src Source, b int, prev *nodeBlock, marks *[blockSize]mark) (*nodeBlock, error) {
	blk := &nodeBlock{nodes: make([]model.Node, blockSize), out: vacantRows, in: vacantRows}
	if prev != nil {
		copy(blk.nodes, prev.nodes)
		blk.live, blk.out, blk.in = prev.live, prev.out, prev.in
	}
	delta, err := reread(blk.nodes, b, marks, src.NodeByID, func(n *model.Node) bool { return n.ID != 0 })
	if blk.live += delta; err != nil || blk.live == 0 {
		return nil, err
	}
	if blk.out, err = spliceRows(blk.out, src.OutEdges, blk.nodes, marks, markOut); err != nil {
		return nil, err
	}
	if blk.in, err = spliceRows(blk.in, src.InEdges, blk.nodes, marks, markIn); err != nil {
		return nil, err
	}
	return blk, nil
}

// patchEdgeBlock is patchNodeBlock for edge block b, which has no rows.
func patchEdgeBlock(src Source, b int, prev *edgeBlock, marks *[blockSize]mark) (*edgeBlock, error) {
	blk := &edgeBlock{edges: make([]model.Edge, blockSize)}
	if prev != nil {
		copy(blk.edges, prev.edges)
		blk.live = prev.live
	}
	delta, err := reread(blk.edges, b, marks, src.EdgeByID, func(e *model.Edge) bool { return e.ID != 0 })
	if blk.live += delta; err != nil || blk.live == 0 {
		return nil, err
	}
	return blk, nil
}

// reread reads into slots the record of each slot of block b marked
// markRec, leaving a slot whose record is absent vacant, and returns the
// change in the number of live slots; isLive tells a live slot from a
// vacant one. ID 0 is never read.
func reread[ID ~uint64, T any](slots []T, b int, marks *[blockSize]mark, fetch func(ID) (T, bool, error), isLive func(*T) bool) (int, error) {
	delta := 0
	lo := ID(b) << blockShift
	for i := range slots {
		if marks[i]&markRec == 0 || lo+ID(i) == 0 {
			continue
		}
		rec, ok, err := fetch(lo + ID(i))
		if err != nil {
			return 0, err
		}
		if isLive(&slots[i]) {
			delta--
		}
		if ok {
			delta++
		} else {
			rec = *new(T)
		}
		slots[i] = rec
	}
	return delta, nil
}

// spliceRows renders one CSR direction of a node block's slots. With no
// row of this direction marked, old is returned as is — shared, not
// copied. Otherwise a marked row is read from the Source, or left empty
// for a vacant slot, and any other row is copied from old.
func spliceRows(old rows, incident func(model.NodeID) ([]model.EdgeID, error), nodes []model.Node, marks *[blockSize]mark, which mark) (rows, error) {
	if !slices.ContainsFunc(marks[:], func(m mark) bool { return m&which != 0 }) {
		return old, nil
	}
	r := rows{
		offs: make([]uint32, 1, len(nodes)+1),
		buf:  make([]byte, 0, len(old.buf)+binary.MaxVarintLen64),
	}
	for i := range nodes {
		switch {
		case marks[i]&which == 0:
			r.buf = append(r.buf, old.row(i)...)
		case nodes[i].ID == 0:
			r.buf = append(r.buf, 0) // degree 0
		default:
			eids, err := incident(nodes[i].ID)
			if err != nil {
				return rows{}, err
			}
			if r.buf, err = appendRow(r.buf, eids); err != nil {
				return rows{}, fmt.Errorf("adj: node %d: %w", nodes[i].ID, err)
			}
		}
		r.offs = append(r.offs, uint32(len(r.buf)))
	}
	return r, nil
}
