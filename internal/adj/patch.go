package adj

import (
	"cmp"
	"encoding/binary"
	"slices"

	"gdbm/internal/model"
)

// This file is the incremental render: the cost of publishing the snapshot
// after a mutation is proportional to the records the mutation touched,
// not to their blocks and not to the graph. A dirty block is a shallow
// clone of its predecessor — the record array is copied, the dirty
// records and CSR rows are re-read from the Source and spliced in, and
// whatever the marks leave untouched (directory, either CSR direction) is
// shared with the predecessor by pointer. The predecessor is never
// written, so snapshots pinned before the mutation keep rendering their
// own epoch.

// mark says which parts of a dirty record's block entry must be re-read.
// Edges only ever carry markRec.
type mark uint8

const (
	markRec mark = 1 << iota // record added, removed or changed
	markOut                  // node's out row gained or lost an edge
	markIn                   // node's in row gained or lost an edge
)

type localMark struct {
	local uint16
	mark  mark
}

// byBlock groups dirty IDs by block number, each group ascending.
func byBlock[ID ~uint64](dirty map[ID]mark) map[int][]localMark {
	groups := make(map[int][]localMark)
	for id, m := range dirty {
		b := int(uint64(id) >> blockShift)
		groups[b] = append(groups[b], localMark{uint16(uint64(id) & blockMask), m})
	}
	for _, g := range groups {
		slices.SortFunc(g, func(x, y localMark) int { return cmp.Compare(x.local, y.local) })
	}
	return groups
}

// patch renders src at epoch from its predecessor: blocks without a dirty
// ID are shared by pointer, the others are patched record by record. The
// dirty sets must name every record and row that changed since prev was
// rendered (the Versioned marking rules).
func (prev *Snapshot) patch(src Source, epoch uint64, dirtyN map[model.NodeID]mark, dirtyE map[model.EdgeID]mark) (*Snapshot, error) {
	s, err := newSnapshot(src, epoch)
	if err != nil {
		return nil, err
	}
	copy(s.nb, prev.nb)
	copy(s.eb, prev.eb)
	for b, dirty := range byBlock(dirtyN) {
		if b >= len(s.nb) {
			continue
		}
		if s.nb[b], err = patchNodeBlock(src, b, s.nb[b], dirty); err != nil {
			return nil, err
		}
	}
	for b, dirty := range byBlock(dirtyE) {
		if b >= len(s.eb) {
			continue
		}
		if s.eb[b], err = patchEdgeBlock(src, b, s.eb[b], dirty); err != nil {
			return nil, err
		}
	}
	s.count()
	return s, nil
}

// merged is a block's record array after its dirty entries were re-read,
// with what the splices that follow need to know about each record.
type merged[T any] struct {
	recs    []T
	locals  []uint16 // local ID
	origin  []int32  // slot in the previous block, -1 for a new record
	marks   []mark   // 0 for a clean record
	changed bool     // membership differs from the previous block
}

// mergeRecords copies old (whose local IDs are oldLocals) and replaces,
// inserts or drops the markRec entries of dirty according to fetch.
func mergeRecords[T any](old []T, oldLocals []uint16, dirty []localMark, fetch func(local uint16) (T, bool, error)) (merged[T], error) {
	n := len(old) + len(dirty)
	m := merged[T]{
		recs:   make([]T, 0, n),
		locals: make([]uint16, 0, n),
		origin: make([]int32, 0, n),
		marks:  make([]mark, 0, n),
	}
	add := func(rec T, local uint16, origin int, mk mark) {
		m.recs = append(m.recs, rec)
		m.locals = append(m.locals, local)
		m.origin = append(m.origin, int32(origin))
		m.marks = append(m.marks, mk)
	}
	i := 0
	for _, d := range dirty {
		for ; i < len(old) && oldLocals[i] < d.local; i++ {
			add(old[i], oldLocals[i], i, 0)
		}
		was := i < len(old) && oldLocals[i] == d.local
		var rec T
		is := was
		if d.mark&markRec != 0 {
			var err error
			if rec, is, err = fetch(d.local); err != nil {
				return m, err
			}
		} else if was {
			rec = old[i]
		}
		if is {
			origin := -1
			if was {
				origin = i
			}
			add(rec, d.local, origin, d.mark)
		}
		if was {
			i++
		}
		m.changed = m.changed || was != is
	}
	for ; i < len(old); i++ {
		add(old[i], oldLocals[i], i, 0)
	}
	return m, nil
}

func patchNodeBlock(src Source, b int, prev *nodeBlock, dirty []localMark) (*nodeBlock, error) {
	if prev == nil {
		prev = &nodeBlock{}
	}
	lo := uint64(b) << blockShift
	m, err := mergeRecords(prev.nodes, prev.dir, dirty, func(local uint16) (model.Node, bool, error) {
		return src.NodeByID(model.NodeID(lo + uint64(local)))
	})
	if err != nil || len(m.recs) == 0 {
		return nil, err
	}
	blk := &nodeBlock{dir: prev.dir, nodes: m.recs}
	if m.changed {
		blk.dir = makeDirectory(m.locals)
	}
	scratch := make([]model.EdgeID, 0, 16)
	if blk.out, err = spliceRows(prev.out, src.OutEdges, m, markOut, &scratch); err != nil {
		return nil, err
	}
	if blk.in, err = spliceRows(prev.in, src.InEdges, m, markIn, &scratch); err != nil {
		return nil, err
	}
	return blk, nil
}

func patchEdgeBlock(src Source, b int, prev *edgeBlock, dirty []localMark) (*edgeBlock, error) {
	if prev == nil {
		prev = &edgeBlock{}
	}
	lo := uint64(b) << blockShift
	m, err := mergeRecords(prev.edges, prev.dir, dirty, func(local uint16) (model.Edge, bool, error) {
		return src.EdgeByID(model.EdgeID(lo + uint64(local)))
	})
	if err != nil || len(m.recs) == 0 {
		return nil, err
	}
	blk := &edgeBlock{dir: prev.dir, edges: m.recs}
	if m.changed {
		blk.dir = makeDirectory(m.locals)
	}
	return blk, nil
}

// spliceRows renders one CSR direction of a patched node block. With the
// membership unchanged and no row of this direction marked, old is
// returned as is — shared, not copied. Otherwise each row is re-read from
// the Source if marked, else copied byte for byte from the node's previous
// slot; a node that is new and unmarked has no edges yet.
func spliceRows(old rows, incident func(model.NodeID) ([]model.EdgeID, error), m merged[model.Node], which mark, scratch *[]model.EdgeID) (rows, error) {
	if !m.changed && !slices.ContainsFunc(m.marks, func(mk mark) bool { return mk&which != 0 }) {
		return old, nil
	}
	r := rows{
		offs: make([]uint32, 1, len(m.recs)+1),
		buf:  make([]byte, 0, len(old.buf)+binary.MaxVarintLen64),
	}
	for i := range m.recs {
		switch o := m.origin[i]; {
		case m.marks[i]&which != 0:
			eids, err := incident(m.recs[i].ID)
			if err != nil {
				return rows{}, err
			}
			r.buf = appendRow(r.buf, eids, scratch)
		case o >= 0:
			r.buf = append(r.buf, old.buf[old.offs[o]:old.offs[o+1]]...)
		default:
			r.buf = append(r.buf, 0) // degree 0
		}
		r.offs = append(r.offs, uint32(len(r.buf)))
	}
	return r, nil
}
