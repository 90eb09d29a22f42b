// Package adj provides succinct, immutable adjacency snapshots for the
// mutable graph stores. A Snapshot is a frozen point-in-time rendering of a
// store into fixed-size blocks laid out as the stores lay out their ids:
// a block's node and edge records sit in slots indexed by local ID, a zero
// ID marking a vacant slot, and each node's incident edge lists are CSR
// rows of delta-encoded uvarints, one row per slot. The companion
// Versioned type (versioned.go) publishes one Snapshot per stable graph
// epoch with copy-on-write block reuse, so acquiring the current snapshot
// is O(1) when the store is quiescent and proportional only to the
// mutated records otherwise (patch.go).
//
// Snapshots are deeply immutable once built: readers share blocks across
// versions without synchronization, and the race detector sees no writes.
// Property maps inside the records are shared with the owning store, which
// is safe because every store in this repository replaces (never mutates)
// a record's map on SetNodeProp/SetEdgeProp — the copy-on-write property
// discipline pinned by the concurrency suite.
//
// Enumeration order is the live store's: Nodes and Edges yield ascending
// IDs, and Neighbors yields each row in the order the Source listed it,
// which the Source contract makes strictly ascending. This is the CSR
// data organization of the "Demystifying Graph Databases" survey.
package adj

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"gdbm/internal/model"
)

// Blocks cover blockSize consecutive IDs; block b holds IDs
// [b<<blockShift, (b+1)<<blockShift) at slots 0..blockSize-1. ID 0 is
// never valid, so slot 0 of block 0 is permanently vacant.
const (
	blockShift = 9
	blockSize  = 1 << blockShift
	blockMask  = blockSize - 1
)

// rows is a CSR over the slots of one node block: row i spans
// buf[offs[i]:offs[i+1]] and encodes [uvarint degree] followed by the
// incident edge IDs in ascending order as uvarint deltas (the first delta
// is from zero, i.e. absolute). A vacant slot's row is degree 0.
type rows struct {
	offs []uint32
	buf  []byte
}

// vacantRows is one CSR direction of a block whose slots are all vacant:
// the predecessor of a block rendered from none.
var vacantRows = func() rows {
	r := rows{offs: make([]uint32, blockSize+1), buf: make([]byte, blockSize)}
	for i := range r.offs {
		r.offs[i] = uint32(i)
	}
	return r
}()

func (r rows) row(i int) []byte { return r.buf[r.offs[i]:r.offs[i+1]] }

func (r rows) degree(i int) int {
	d, _ := binary.Uvarint(r.row(i))
	return int(d)
}

// forEach decodes row i, calling fn for each edge ID until fn returns
// false; it reports whether the full row was consumed.
func (r rows) forEach(i int, fn func(model.EdgeID) bool) bool {
	buf := r.row(i)
	d, n := binary.Uvarint(buf)
	buf = buf[n:]
	prev := uint64(0)
	for k := uint64(0); k < d; k++ {
		delta, n := binary.Uvarint(buf)
		buf = buf[n:]
		prev += delta
		if !fn(model.EdgeID(prev)) {
			return false
		}
	}
	return true
}

// nodeBlock holds the node slots of one ID block plus both CSR
// directions; edgeBlock holds edge slots only (adjacency lives with the
// endpoint nodes). Both hold blockSize slots and count their live ones.
// They are immutable once their builder returns.
type nodeBlock struct {
	nodes []model.Node // nodes[local]; a zero ID marks a vacant slot
	live  int
	out   rows
	in    rows
}

type edgeBlock struct {
	edges []model.Edge // edges[local]; likewise
	live  int
}

// Snapshot is an immutable model.Graph rendered from a store at one stable
// epoch. It is safe for unsynchronized use by any number of readers.
type Snapshot struct {
	epoch uint64
	nb    []*nodeBlock // nil entries are fully vacant blocks
	eb    []*edgeBlock
	order int
	size  int
	pins  atomic.Int64
}

// Epoch returns the stable store epoch this snapshot renders.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Pins returns the number of outstanding (unreleased) pins — observability
// for the release-discipline tests; the snapshot itself is reclaimed by
// the garbage collector once unpublished and unpinned.
func (s *Snapshot) Pins() int64 { return s.pins.Load() }

// Pin records a reader reference and returns its release. The release is
// idempotent, per the model.ReleaseFunc contract.
func (s *Snapshot) Pin() model.ReleaseFunc {
	s.pins.Add(1)
	var once sync.Once
	return func() { once.Do(func() { s.pins.Add(-1) }) }
}

// nodeSlot returns the block and slot of node id, or a nil block when id
// names no live node.
func (s *Snapshot) nodeSlot(id model.NodeID) (*nodeBlock, int) {
	b, i := uint64(id)>>blockShift, int(uint64(id)&blockMask)
	if b >= uint64(len(s.nb)) || s.nb[b] == nil || s.nb[b].nodes[i].ID == 0 {
		return nil, 0
	}
	return s.nb[b], i
}

func (s *Snapshot) edgeAt(id model.EdgeID) *model.Edge {
	b, i := uint64(id)>>blockShift, int(uint64(id)&blockMask)
	if b >= uint64(len(s.eb)) || s.eb[b] == nil || s.eb[b].edges[i].ID == 0 {
		return nil
	}
	return &s.eb[b].edges[i]
}

// Order returns the number of nodes.
func (s *Snapshot) Order() int { return s.order }

// Size returns the number of edges.
func (s *Snapshot) Size() int { return s.size }

// Node returns the node record for id.
func (s *Snapshot) Node(id model.NodeID) (model.Node, error) {
	blk, i := s.nodeSlot(id)
	if blk == nil {
		return model.Node{}, model.NodeNotFound(id)
	}
	return blk.nodes[i], nil
}

// Edge returns the edge record for id.
func (s *Snapshot) Edge(id model.EdgeID) (model.Edge, error) {
	e := s.edgeAt(id)
	if e == nil {
		return model.Edge{}, model.EdgeNotFound(id)
	}
	return *e, nil
}

// Nodes calls fn for every node in ascending ID order.
func (s *Snapshot) Nodes(fn func(model.Node) bool) error {
	for _, blk := range s.nb {
		if blk == nil {
			continue
		}
		for i := range blk.nodes {
			if blk.nodes[i].ID != 0 && !fn(blk.nodes[i]) {
				return nil
			}
		}
	}
	return nil
}

// Edges calls fn for every edge in ascending ID order.
func (s *Snapshot) Edges(fn func(model.Edge) bool) error {
	for _, blk := range s.eb {
		if blk == nil {
			continue
		}
		for i := range blk.edges {
			if blk.edges[i].ID != 0 && !fn(blk.edges[i]) {
				return nil
			}
		}
	}
	return nil
}

// Neighbors calls fn for each incident edge of id in the given direction,
// out-rows before in-rows, each in ascending edge-ID order. A self-loop is
// visited once per direction, matching the live stores.
func (s *Snapshot) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	blk, i := s.nodeSlot(id)
	if blk == nil {
		return model.NodeNotFound(id)
	}
	emit := func(eid model.EdgeID, out bool) bool {
		e := s.edgeAt(eid)
		if e == nil {
			return true // unreachable on a consistent render; skip defensively
		}
		far := e.From
		if out {
			far = e.To
		}
		fb, fi := s.nodeSlot(far)
		if fb == nil {
			return true
		}
		return fn(*e, fb.nodes[fi])
	}
	if dir == model.Out || dir == model.Both {
		if !blk.out.forEach(i, func(eid model.EdgeID) bool { return emit(eid, true) }) {
			return nil
		}
	}
	if dir == model.In || dir == model.Both {
		blk.in.forEach(i, func(eid model.EdgeID) bool { return emit(eid, false) })
	}
	return nil
}

// Degree returns the incident edge count in the given direction, decoded
// from a single uvarint per direction — O(1) in the row length.
func (s *Snapshot) Degree(id model.NodeID, dir model.Direction) (int, error) {
	blk, i := s.nodeSlot(id)
	if blk == nil {
		return 0, model.NodeNotFound(id)
	}
	switch dir {
	case model.Out:
		return blk.out.degree(i), nil
	case model.In:
		return blk.in.degree(i), nil
	default:
		return blk.out.degree(i) + blk.in.degree(i), nil
	}
}
