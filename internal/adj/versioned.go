package adj

import (
	"sync"
	"sync/atomic"

	"gdbm/internal/model"
)

// Versioned publishes one immutable Snapshot per stable graph epoch with
// copy-on-write block reuse. The owning store embeds one next to its
// cache.Epoch and follows three rules:
//
//   - every mutation, while holding the store's exclusive lock, double-bumps
//     the epoch (odd mid-mutation, even at rest) and marks each record it
//     touches: MarkNode for a node added, removed or changed, MarkEdge for
//     an edge whose properties changed, MarkLink for an edge added or
//     removed;
//   - AcquireView first calls TryPin with the current epoch — the O(1) path
//     that succeeds whenever the published snapshot is already current — and
//     only on a miss takes the store's reader lock and calls Pin;
//   - Pin is called with writers excluded and epoch read under that
//     exclusion, so the render sees a quiescent store and the dirty sets
//     cannot grow mid-build.
//
// Marking more than changed is harmless (the record is re-read and found
// equal); marking less serves a stale record. The Mark methods take an
// internal mutex, so Versioned is safe even if an owner's locking
// discipline is looser than the rules above; the rules are what make
// TryPin's epoch comparison meaningful.
type Versioned struct {
	mu     sync.Mutex
	cur    atomic.Pointer[Snapshot]
	dirtyN map[model.NodeID]mark
	dirtyE map[model.EdgeID]mark
	full   bool // the next render ignores cur and the dirty sets
}

// markNode adds m to id's dirty mark. While the next render is a full one
// anyway — nothing published yet, or MarkAll pending — there is nothing to
// patch, so a bulk load does not grow a dirty set the size of the graph.
func (v *Versioned) markNode(id model.NodeID, m mark) {
	if id == 0 || v.full || v.cur.Load() == nil {
		return
	}
	if v.dirtyN == nil {
		v.dirtyN = make(map[model.NodeID]mark)
	}
	v.dirtyN[id] |= m
}

func (v *Versioned) markEdge(id model.EdgeID) {
	if id == 0 || v.full || v.cur.Load() == nil {
		return
	}
	if v.dirtyE == nil {
		v.dirtyE = make(map[model.EdgeID]mark)
	}
	v.dirtyE[id] = markRec
}

// MarkNode records that node id was added, removed or had a property set.
func (v *Versioned) MarkNode(id model.NodeID) {
	v.mu.Lock()
	v.markNode(id, markRec)
	v.mu.Unlock()
}

// MarkEdge records that edge id had a property set.
func (v *Versioned) MarkEdge(id model.EdgeID) {
	v.mu.Lock()
	v.markEdge(id)
	v.mu.Unlock()
}

// MarkLink records that edge id from->to was added or removed: its record
// and the two adjacency rows it appears in.
func (v *Versioned) MarkLink(id model.EdgeID, from, to model.NodeID) {
	v.mu.Lock()
	v.markEdge(id)
	v.markNode(from, markOut)
	v.markNode(to, markIn)
	v.mu.Unlock()
}

// MarkAll invalidates every block — for wholesale store replacement
// (transaction rollback restores).
func (v *Versioned) MarkAll() {
	v.mu.Lock()
	v.full = true
	v.mu.Unlock()
}

// Current returns the published snapshot, if any — observability only.
func (v *Versioned) Current() *Snapshot { return v.cur.Load() }

// TryPin pins the published snapshot iff it renders exactly the given
// epoch and the epoch is stable (even). This is the lock-free O(1)
// acquire path: one atomic load, one pin. A nil release means the pin
// missed and a render is needed — success is exactly "release != nil",
// the shape the closeleak analyzer's nil-pardon understands.
func (v *Versioned) TryPin(epoch uint64) (*Snapshot, model.ReleaseFunc) {
	if epoch&1 == 1 { // mid-mutation; caller must serialize with the writer
		return nil, nil
	}
	s := v.cur.Load()
	if s == nil || s.epoch != epoch {
		return nil, nil
	}
	release := s.Pin()
	return s, release
}

// Pin returns a pinned snapshot of src at the given epoch. When the
// published version is stale it is patched with the records marked since
// (patch.go); the first publish and MarkAll render every block. The caller must hold the store's writer-excluding lock and must
// have read epoch under it.
func (v *Versioned) Pin(epoch uint64, src Source) (*Snapshot, model.ReleaseFunc, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.cur.Load(); s != nil && s.epoch == epoch {
		return s, s.Pin(), nil
	}
	var s *Snapshot
	var err error
	if prev := v.cur.Load(); prev == nil || v.full {
		s, err = Build(src, epoch)
	} else {
		s, err = prev.patch(src, epoch, v.dirtyN, v.dirtyE)
	}
	if err != nil {
		return nil, nil, err
	}
	v.cur.Store(s)
	v.dirtyN, v.dirtyE, v.full = nil, nil, false
	return s, s.Pin(), nil
}
