package main

import (
	"sync"
	"sync/atomic"
	"time"

	"gdbm/internal/model"
	"gdbm/internal/query/plan"
	"gdbm/internal/query/stats"
	"gdbm/internal/storage/vfs"
)

// countFS is the benchmark's view of the vfs layer: a vfs.FS that counts
// every call and byte and times syncs. Reads are timed only while timing
// is switched on (the traced pass), so the untraced window pays one
// atomic add per call and no clock reads.
type countFS struct {
	fs     vfs.FS
	timing atomic.Bool

	reads, readBytes, readNS atomic.Int64
	writes, writeBytes       atomic.Int64
	syncs                    atomic.Int64

	mu     sync.Mutex
	syncNS []int64
}

func newCountFS() *countFS { return &countFS{fs: vfs.OSFS} }

func (c *countFS) OpenFile(path string) (vfs.File, error) {
	f, err := c.fs.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &countFile{f: f, c: c}, nil
}

func (c *countFS) MkdirAll(path string) error             { return c.fs.MkdirAll(path) }
func (c *countFS) RemoveAll(path string) error            { return c.fs.RemoveAll(path) }
func (c *countFS) TempDir(pattern string) (string, error) { return c.fs.TempDir(pattern) }

// fsCounts is a snapshot of a countFS's counters.
type fsCounts struct {
	reads, readBytes, readNS int64
	writes, writeBytes       int64
	syncs                    int64
}

func (c *countFS) counts() fsCounts {
	return fsCounts{
		reads: c.reads.Load(), readBytes: c.readBytes.Load(), readNS: c.readNS.Load(),
		writes: c.writes.Load(), writeBytes: c.writeBytes.Load(), syncs: c.syncs.Load(),
	}
}

// syncDurations returns the sync times recorded since the last call.
func (c *countFS) syncDurations() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.syncNS
	c.syncNS = nil
	return out
}

type countFile struct {
	f vfs.File
	c *countFS
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	f.c.reads.Add(1)
	if !f.c.timing.Load() {
		n, err := f.f.ReadAt(p, off)
		f.c.readBytes.Add(int64(n))
		return n, err
	}
	t := time.Now()
	n, err := f.f.ReadAt(p, off)
	f.c.readNS.Add(int64(time.Since(t)))
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	f.c.writes.Add(1)
	n, err := f.f.WriteAt(p, off)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t := time.Now()
	err := f.f.Sync()
	d := int64(time.Since(t))
	f.c.syncs.Add(1)
	f.c.mu.Lock()
	f.c.syncNS = append(f.c.syncNS, d)
	f.c.mu.Unlock()
	return err
}

func (f *countFile) Truncate(size int64) error { return f.f.Truncate(size) }
func (f *countFile) Size() (int64, error)      { return f.f.Size() }
func (f *countFile) Close() error              { return f.f.Close() }

// timedSource is the benchmark's view of the store layer below the
// operators: a plan.Source that counts calls and delivered elements and
// times the store's share of each call. Time spent inside a delivery
// callback belongs to the operators above, so the clock stops while the
// callback runs. It forwards stats.Provider and model.SortedAdjacency,
// the two capabilities the planner probes by type assertion; without
// them the plan would change. One query runs on one goroutine, so the
// fields need no locking.
type timedSource struct {
	src   plan.Source
	calls int64
	elems int64
	ns    int64
}

var (
	_ plan.Source           = (*timedSource)(nil)
	_ stats.Provider        = (*timedSource)(nil)
	_ model.SortedAdjacency = (*timedSource)(nil)
)

func (s *timedSource) Order() int { return s.src.Order() }
func (s *timedSource) Size() int  { return s.src.Size() }

func (s *timedSource) Node(id model.NodeID) (model.Node, error) {
	s.calls++
	s.elems++
	t := time.Now()
	n, err := s.src.Node(id)
	s.ns += int64(time.Since(t))
	return n, err
}

func (s *timedSource) Edge(id model.EdgeID) (model.Edge, error) {
	s.calls++
	s.elems++
	t := time.Now()
	e, err := s.src.Edge(id)
	s.ns += int64(time.Since(t))
	return e, err
}

func (s *timedSource) Degree(id model.NodeID, dir model.Direction) (int, error) {
	s.calls++
	t := time.Now()
	d, err := s.src.Degree(id, dir)
	s.ns += int64(time.Since(t))
	return d, err
}

func (s *timedSource) Nodes(fn func(model.Node) bool) error {
	s.calls++
	t := time.Now()
	err := s.src.Nodes(func(n model.Node) bool {
		s.ns += int64(time.Since(t))
		s.elems++
		ok := fn(n)
		t = time.Now()
		return ok
	})
	s.ns += int64(time.Since(t))
	return err
}

func (s *timedSource) Edges(fn func(model.Edge) bool) error {
	s.calls++
	t := time.Now()
	err := s.src.Edges(func(e model.Edge) bool {
		s.ns += int64(time.Since(t))
		s.elems++
		ok := fn(e)
		t = time.Now()
		return ok
	})
	s.ns += int64(time.Since(t))
	return err
}

func (s *timedSource) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	s.calls++
	t := time.Now()
	err := s.src.Neighbors(id, dir, func(e model.Edge, n model.Node) bool {
		s.ns += int64(time.Since(t))
		s.elems++
		ok := fn(e, n)
		t = time.Now()
		return ok
	})
	s.ns += int64(time.Since(t))
	return err
}

func (s *timedSource) IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (bool, error) {
	s.calls++
	t := time.Now()
	handled, err := s.src.IndexedNodes(label, prop, v, func(n model.Node) bool {
		s.ns += int64(time.Since(t))
		s.elems++
		ok := fn(n)
		t = time.Now()
		return ok
	})
	s.ns += int64(time.Since(t))
	return handled, err
}

// SortedNeighborIDs implements model.SortedAdjacency through the same
// helper the operators use, so a source with a native sorted list still
// serves it natively.
func (s *timedSource) SortedNeighborIDs(id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	s.calls++
	t := time.Now()
	ids, err := plan.SortedNeighborIDs(s.src, id, dir, label)
	s.ns += int64(time.Since(t))
	s.elems += int64(len(ids))
	return ids, err
}

// PlanStats implements stats.Provider; a source without statistics
// answers (nil, nil), which is what the planner takes as "none".
func (s *timedSource) PlanStats() (*stats.Stats, error) {
	if sp, ok := s.src.(stats.Provider); ok {
		return sp.PlanStats()
	}
	return nil, nil
}
