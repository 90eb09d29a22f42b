// Package adj provides succinct, immutable adjacency snapshots for the
// mutable graph stores. A Snapshot is a frozen point-in-time rendering of a
// store into fixed-size blocks: node and edge records live in dense
// per-block arrays addressed through a membership directory, and each
// node's incident edge lists are CSR rows of delta-encoded uvarints. The
// companion Versioned type (versioned.go) publishes one Snapshot per stable
// graph epoch with copy-on-write block reuse, so acquiring the current
// snapshot is O(1) when the store is quiescent and proportional only to the
// mutated records otherwise (patch.go).
//
// Snapshots are deeply immutable once built: readers share blocks across
// versions without synchronization, and the race detector sees no writes.
// Property maps inside the records are shared with the owning store, which
// is safe because every store in this repository replaces (never mutates)
// a record's map on SetNodeProp/SetEdgeProp — the copy-on-write property
// discipline pinned by the concurrency suite.
//
// Enumeration order is deterministic: Nodes, Edges and Neighbors yield
// ascending IDs (neighbor rows are sorted by edge ID at build time). This
// is the CSR data organization of the "Demystifying Graph Databases"
// survey.
package adj

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// Blocks cover blockSize consecutive IDs; block b holds IDs
// [b<<blockShift, (b+1)<<blockShift). ID 0 is never valid, so slot 0 of
// block 0 is permanently vacant.
const (
	blockShift = 9
	blockSize  = 1 << blockShift
	blockMask  = blockSize - 1
)

// rows is a CSR over the records of one block: row i spans
// buf[offs[i]:offs[i+1]] and encodes [uvarint degree] followed by the
// incident edge IDs in ascending order as uvarint deltas (the first delta
// is from zero, i.e. absolute).
type rows struct {
	offs []uint32
	buf  []byte
}

func (r rows) degree(i int) int {
	d, _ := binary.Uvarint(r.buf[r.offs[i]:r.offs[i+1]])
	return int(d)
}

// forEach decodes row i, calling fn for each edge ID until fn returns
// false; it reports whether the full row was consumed.
func (r rows) forEach(i int, fn func(model.EdgeID) bool) bool {
	buf := r.buf[r.offs[i]:r.offs[i+1]]
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

// nodeBlock holds the node records of one ID block plus both CSR
// directions; edgeBlock holds edge records only (adjacency lives with the
// endpoint nodes). Both are immutable once their builder returns, except
// for part, a write-once memo of the block's planner statistics
// (planstats.go).
type nodeBlock struct {
	dir   directory
	nodes []model.Node // dense, ascending ID
	out   rows
	in    rows
	part  atomic.Pointer[stats.Partial]
}

type edgeBlock struct {
	dir   directory
	edges []model.Edge // dense, ascending ID
	part  atomic.Pointer[stats.Partial]
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

func (s *Snapshot) nodeAt(id model.NodeID) (*model.Node, bool) {
	if id == 0 {
		return nil, false
	}
	b := uint64(id) >> blockShift
	if b >= uint64(len(s.nb)) || s.nb[b] == nil {
		return nil, false
	}
	blk := s.nb[b]
	slot, ok := blk.dir.rank(uint32(uint64(id) & blockMask))
	if !ok {
		return nil, false
	}
	return &blk.nodes[slot], true
}

func (s *Snapshot) edgeAt(id model.EdgeID) (*model.Edge, bool) {
	if id == 0 {
		return nil, false
	}
	b := uint64(id) >> blockShift
	if b >= uint64(len(s.eb)) || s.eb[b] == nil {
		return nil, false
	}
	blk := s.eb[b]
	slot, ok := blk.dir.rank(uint32(uint64(id) & blockMask))
	if !ok {
		return nil, false
	}
	return &blk.edges[slot], true
}

// Order returns the number of nodes.
func (s *Snapshot) Order() int { return s.order }

// Size returns the number of edges.
func (s *Snapshot) Size() int { return s.size }

// Node returns the node record for id.
func (s *Snapshot) Node(id model.NodeID) (model.Node, error) {
	n, ok := s.nodeAt(id)
	if !ok {
		return model.Node{}, model.NodeNotFound(id)
	}
	return *n, nil
}

// Edge returns the edge record for id.
func (s *Snapshot) Edge(id model.EdgeID) (model.Edge, error) {
	e, ok := s.edgeAt(id)
	if !ok {
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
			if !fn(blk.nodes[i]) {
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
			if !fn(blk.edges[i]) {
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
	if id == 0 {
		return model.NodeNotFound(id)
	}
	b := uint64(id) >> blockShift
	if b >= uint64(len(s.nb)) || s.nb[b] == nil {
		return model.NodeNotFound(id)
	}
	blk := s.nb[b]
	slot, ok := blk.dir.rank(uint32(uint64(id) & blockMask))
	if !ok {
		return model.NodeNotFound(id)
	}
	emit := func(eid model.EdgeID, out bool) bool {
		e, ok := s.edgeAt(eid)
		if !ok {
			return true // unreachable on a consistent render; skip defensively
		}
		far := e.From
		if out {
			far = e.To
		}
		n, ok := s.nodeAt(far)
		if !ok {
			return true
		}
		return fn(*e, *n)
	}
	if dir == model.Out || dir == model.Both {
		if !blk.out.forEach(slot, func(eid model.EdgeID) bool { return emit(eid, true) }) {
			return nil
		}
	}
	if dir == model.In || dir == model.Both {
		if !blk.in.forEach(slot, func(eid model.EdgeID) bool { return emit(eid, false) }) {
			return nil
		}
	}
	return nil
}

// Degree returns the incident edge count in the given direction, decoded
// from a single uvarint per direction — O(1) in the row length.
func (s *Snapshot) Degree(id model.NodeID, dir model.Direction) (int, error) {
	if id == 0 {
		return 0, model.NodeNotFound(id)
	}
	b := uint64(id) >> blockShift
	if b >= uint64(len(s.nb)) || s.nb[b] == nil {
		return 0, model.NodeNotFound(id)
	}
	blk := s.nb[b]
	slot, ok := blk.dir.rank(uint32(uint64(id) & blockMask))
	if !ok {
		return 0, model.NodeNotFound(id)
	}
	switch dir {
	case model.Out:
		return blk.out.degree(slot), nil
	case model.In:
		return blk.in.degree(slot), nil
	default:
		return blk.out.degree(slot) + blk.in.degree(slot), nil
	}
}
