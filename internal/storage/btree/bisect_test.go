package btree

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"gdbm/internal/storage/pager"
	"gdbm/internal/storage/vfs"
)

// TestChildForMatchesLinearWalk holds the child bisect picks, through the
// entry offsets the pool keeps with each frame, to the linear childFor and
// to childIndex on the decoded node, for every internal node of a tree of
// at least three levels. Each node is probed at every separator, with a
// byte appended to it and with its last byte decremented, before its first
// key, after its last, and with nil. The pool is smaller than the internal
// nodes, so probing evicts them and a miss reads a page into a frame that
// held another internal node's offsets. The probes run again during puts
// that split leaves and internal nodes, and after a Write that re-lays an
// internal page behind the tree's back.
func TestChildForMatchesLinearWalk(t *testing.T) {
	pg, err := pager.Open(filepath.Join(t.TempDir(), "bt.pg"), pager.Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	tree, _, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	fillGraph(t, tree, 6000, 2, 7)
	if d := depth(t, tree); d < 3 {
		t.Fatalf("tree has %d levels, want >= 3", d)
	}
	before := internalNodes(t, tree)
	if len(before) <= 4 {
		t.Fatalf("%d internal nodes, want more than the pool's 4 frames", len(before))
	}
	probeInternal(t, tree)

	// Ascending keys under one node land in one leaf after another, so each
	// split hands a separator to the same parent, which splits in turn. The
	// 200-byte values split a leaf every few puts.
	val := bytes.Repeat([]byte{'v'}, 200)
	for i := uint64(0); i < 3000; i++ {
		if err := tree.Put(graphKey("o!", 3000, 1<<40+i), val); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			probeInternal(t, tree)
		}
	}
	after := internalNodes(t, tree)
	split := 0
	for _, id := range after {
		if !slices.Contains(before, id) {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no internal node split")
	}

	// Re-lay a probed internal node without its first entry, so every
	// entry after it moves, and probe it again.
	id := after[len(after)/2]
	probeNode(t, tree, id)
	n := readNode(t, tree, id)
	if len(n.keys) < 2 {
		t.Fatalf("internal node %d has %d keys", id, len(n.keys))
	}
	n.keys, n.children = n.keys[1:], n.children[1:]
	if err := pg.Write(id, encodeNode(n)); err != nil {
		t.Fatal(err)
	}
	probeNode(t, tree, id)
}

// internalNodes lists tree's internal nodes, root first, level by level.
func internalNodes(t *testing.T, tree *Tree) []pager.PageID {
	t.Helper()
	var out []pager.PageID
	for level := []pager.PageID{tree.root}; len(level) > 0; {
		var next []pager.PageID
		for _, id := range level {
			if n := readNode(t, tree, id); !n.leaf {
				out = append(out, id)
				next = append(next, n.children...)
			}
		}
		level = next
	}
	return out
}

func probeInternal(t *testing.T, tree *Tree) {
	t.Helper()
	for _, id := range internalNodes(t, tree) {
		probeNode(t, tree, id)
	}
}

// probeNode holds bisect on internal node id, with the offsets its frame
// keeps, to childFor and childIndex at every probe key.
func probeNode(t *testing.T, tree *Tree, id pager.PageID) {
	t.Helper()
	n := readNode(t, tree, id)
	probes := [][]byte{nil, []byte("a"), []byte("z")}
	for _, k := range n.keys {
		probes = append(probes, k, append(slices.Clone(k), 0))
		if dec := slices.Clone(k); dec[len(dec)-1] > 0 {
			dec[len(dec)-1]--
			probes = append(probes, dec)
		}
	}
	for _, k := range probes {
		var got, lin pager.PageID
		var gi, li int
		err := tree.pg.ViewIndexed(id, func(page []byte, offs *[]uint16) error {
			c, err := openCursor(id, page)
			if err != nil {
				return err
			}
			got, gi, err = c.bisect(k, offs)
			return err
		})
		if err != nil {
			t.Fatalf("page %d: bisect %q: %v", id, k, err)
		}
		err = tree.pg.View(id, func(page []byte) error {
			c, err := openCursor(id, page)
			if err != nil {
				return err
			}
			lin, li, err = c.childFor(k)
			return err
		})
		if err != nil {
			t.Fatalf("page %d: childFor %q: %v", id, k, err)
		}
		want := childIndex(n.keys, k)
		if gi != want || got != n.children[want] || li != want || lin != got {
			t.Fatalf("page %d, key %q: bisect = %d (index %d), childFor = %d (index %d), childIndex = %d (index %d)",
				id, k, got, gi, lin, li, n.children[want], want)
		}
	}
}

// A Put that replaces a value changes neither the count nor the root, so
// it leaves the header page clean: the Flush after it writes the meta page
// and the one leaf, nothing else. An insert still writes the header.
func TestReplacingPutLeavesHeaderClean(t *testing.T) {
	fs := &pageLog{FS: vfs.OSFS}
	pg, err := pager.Open(filepath.Join(t.TempDir(), "bt.pg"), pager.Options{PoolPages: 64, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	tree, header, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	fillGraph(t, tree, 60, 2, 3)
	if d := depth(t, tree); d < 2 {
		t.Fatalf("tree has %d levels, want >= 2", d)
	}
	key := graphKey("n!", 7)
	leaf := leafOf(t, tree, key)
	flushed := func(put []byte) []int64 {
		t.Helper()
		if err := pg.Flush(); err != nil {
			t.Fatal(err)
		}
		fs.pages = nil
		if err := tree.Put(put, []byte("value")); err != nil {
			t.Fatal(err)
		}
		if err := pg.Flush(); err != nil {
			t.Fatal(err)
		}
		return fs.pages
	}
	if got, want := flushed(key), []int64{0, int64(leaf)}; !slices.Equal(got, want) {
		t.Errorf("a replacing Put flushed pages %v, want %v (meta, leaf)", got, want)
	}
	ins := graphKey("n!", 7, 1)
	if got := flushed(ins); !slices.Contains(got, int64(header)) {
		t.Errorf("an inserting Put flushed pages %v, without header page %d", got, header)
	}
}

// pageLog records the page number of every page write, in order.
type pageLog struct {
	vfs.FS
	pages []int64
}

func (l *pageLog) OpenFile(path string) (vfs.File, error) {
	f, err := l.FS.OpenFile(path)
	return loggedFile{f, l}, err
}

type loggedFile struct {
	vfs.File
	log *pageLog
}

func (f loggedFile) WriteAt(p []byte, off int64) (int, error) {
	f.log.pages = append(f.log.pages, off/pager.PageSize)
	return f.File.WriteAt(p, off)
}
