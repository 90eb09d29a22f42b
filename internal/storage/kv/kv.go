// Package kv defines the ordered key/value store interface shared by the
// backend-storage engines (Table I's "Backend Storage" column) and provides
// two implementations: an in-memory sorted store and a disk store backed by
// the on-disk B+tree.
package kv

import (
	"bytes"
	"sort"
	"sync"

	"gdbm/internal/cache"
	"gdbm/internal/obs"
	"gdbm/internal/storage/btree"
	"gdbm/internal/storage/pager"
	"gdbm/internal/storage/vfs"
)

// Store is an ordered byte-key/byte-value map.
type Store interface {
	// Get returns the value for key; ok is false if absent.
	Get(key []byte) (val []byte, ok bool, err error)
	// Put inserts or replaces key.
	Put(key, val []byte) error
	// Delete removes key, reporting whether it existed.
	Delete(key []byte) (bool, error)
	// Scan calls fn for each key with the given prefix in ascending order
	// until fn returns false.
	Scan(prefix []byte, fn func(key, val []byte) bool) error
	// Len returns the number of stored keys.
	Len() int
	// Close releases resources.
	Close() error
}

// Memory is an in-memory Store kept in sorted order. It is safe for
// concurrent use.
type Memory struct {
	mu   sync.RWMutex
	keys [][]byte
	vals [][]byte
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{} }

func (m *Memory) find(key []byte) (int, bool) {
	i := sort.Search(len(m.keys), func(i int) bool { return bytes.Compare(m.keys[i], key) >= 0 })
	if i < len(m.keys) && bytes.Equal(m.keys[i], key) {
		return i, true
	}
	return i, false
}

// Get implements Store.
func (m *Memory) Get(key []byte) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i, ok := m.find(key); ok {
		return append([]byte(nil), m.vals[i]...), true, nil
	}
	return nil, false, nil
}

// Put implements Store.
func (m *Memory) Put(key, val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.find(key)
	v := append([]byte(nil), val...)
	if ok {
		m.vals[i] = v
		return nil
	}
	k := append([]byte(nil), key...)
	m.keys = append(m.keys, nil)
	copy(m.keys[i+1:], m.keys[i:])
	m.keys[i] = k
	m.vals = append(m.vals, nil)
	copy(m.vals[i+1:], m.vals[i:])
	m.vals[i] = v
	return nil
}

// Delete implements Store.
func (m *Memory) Delete(key []byte) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.find(key)
	if !ok {
		return false, nil
	}
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.vals = append(m.vals[:i], m.vals[i+1:]...)
	return true, nil
}

// Scan implements Store.
func (m *Memory) Scan(prefix []byte, fn func(key, val []byte) bool) error {
	m.mu.RLock()
	type kv struct{ k, v []byte }
	var snap []kv
	i := sort.Search(len(m.keys), func(i int) bool { return bytes.Compare(m.keys[i], prefix) >= 0 })
	for ; i < len(m.keys) && bytes.HasPrefix(m.keys[i], prefix); i++ {
		snap = append(snap, kv{append([]byte(nil), m.keys[i]...), append([]byte(nil), m.vals[i]...)})
	}
	m.mu.RUnlock()
	for _, e := range snap {
		if !fn(e.k, e.v) {
			return nil
		}
	}
	return nil
}

// Len implements Store.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.keys)
}

// Close implements Store.
func (m *Memory) Close() error { return nil }

// Disk is a Store backed by the on-disk B+tree.
type Disk struct {
	pg   *pager.Pager
	tree *btree.Tree
	// Header is the B+tree header page; persist it to reopen the store.
	Header pager.PageID
}

// DiskOptions configures OpenDiskWith.
type DiskOptions struct {
	// PoolPages bounds the pager's buffer pool in pages (zero = default).
	PoolPages int
	// CacheBytes bounds the buffer pool in bytes; when positive it
	// overrides PoolPages (see pager.Options.CacheBytes).
	CacheBytes int64
	// FS is the filesystem the page file lives on; nil means the real one.
	FS vfs.FS
	// Metrics, when non-nil, receives the pager's I/O counters (see
	// pager.Options.Metrics).
	Metrics *obs.Registry
}

// OpenDisk opens (or creates) a disk store in its own page file at path on
// the real filesystem.
func OpenDisk(path string, poolPages int) (*Disk, error) {
	return OpenDiskFS(nil, path, poolPages)
}

// OpenDiskFS is OpenDisk over an explicit filesystem (nil means the real
// one); crash tests pass a vfs.FaultFS.
func OpenDiskFS(fsys vfs.FS, path string, poolPages int) (*Disk, error) {
	return OpenDiskWith(path, DiskOptions{PoolPages: poolPages, FS: fsys})
}

// OpenDiskWith is OpenDiskFS with the full option set.
func OpenDiskWith(path string, o DiskOptions) (*Disk, error) {
	pg, err := pager.Open(path, pager.Options{PoolPages: o.PoolPages, CacheBytes: o.CacheBytes, FS: o.FS, Metrics: o.Metrics})
	if err != nil {
		return nil, err
	}
	var t *btree.Tree
	var header pager.PageID
	if pg.Pages() <= 1 {
		t, header, err = btree.Create(pg)
	} else {
		// By construction the first tree created in a fresh file has
		// header page 1.
		header = 1
		t, err = btree.Load(pg, header)
	}
	if err != nil {
		pg.Close()
		return nil, err
	}
	return &Disk{pg: pg, tree: t, Header: header}, nil
}

// Get implements Store.
func (d *Disk) Get(key []byte) ([]byte, bool, error) { return d.tree.Get(key) }

// Put implements Store.
func (d *Disk) Put(key, val []byte) error { return d.tree.Put(key, val) }

// Delete implements Store.
func (d *Disk) Delete(key []byte) (bool, error) { return d.tree.Delete(key) }

// Scan implements Store.
func (d *Disk) Scan(prefix []byte, fn func(key, val []byte) bool) error {
	return d.tree.AscendPrefix(prefix, fn)
}

// Len implements Store.
func (d *Disk) Len() int { return d.tree.Len() }

// Flush persists buffered pages.
func (d *Disk) Flush() error { return d.pg.Flush() }

// CacheStats returns the underlying pager's buffer-pool counters.
func (d *Disk) CacheStats() cache.Stats { return d.pg.CacheStats() }

// Close implements Store.
func (d *Disk) Close() error { return d.pg.Close() }

var (
	_ Store = (*Memory)(nil)
	_ Store = (*Disk)(nil)
)
