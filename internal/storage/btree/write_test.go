package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"gdbm/internal/storage/pager"
	"gdbm/internal/storage/vfs"
)

// TestWritesKeepPagesCanonical runs random puts, deletes and replacements
// whose values grow and shrink over a pool small enough to evict, until
// leaves and internal nodes have split. After every operation each page
// reachable from the root must hold exactly what writeNode lays out for its
// decoded node, zero tail included, and the tree must hold the model's
// entries; both must still hold after Flush and Load.
func TestWritesKeepPagesCanonical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bt.pg")
	pg, err := pager.Open(path, pager.Options{PoolPages: 6})
	if err != nil {
		t.Fatal(err)
	}
	tree, header, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Long keys keep internal nodes narrow, so they split too.
	keys := make([][]byte, 250)
	for i := range keys {
		keys[i] = append(fmt.Appendf(nil, "k%04d-", rng.Intn(10000)), bytes.Repeat([]byte{'x'}, 200+rng.Intn(300))...)
	}
	model := map[string][]byte{}
	for op := 0; op < 1000; op++ {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(10); {
		case r < 2:
			ok, err := tree.Delete(k)
			_, want := model[string(k)]
			if err != nil || ok != want {
				t.Fatalf("op %d: Delete = %v %v, want %v", op, ok, err, want)
			}
			delete(model, string(k))
		default:
			v := make([]byte, rng.Intn(600))
			rng.Read(v)
			if err := tree.Put(k, v); err != nil {
				t.Fatalf("op %d: Put: %v", op, err)
			}
			model[string(k)] = v
		}
		checkCanonical(t, tree, model)
	}
	if d := depth(t, tree); d < 3 {
		t.Fatalf("tree has %d levels, want >= 3", d)
	}
	if err := pg.Flush(); err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, tree, model)
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}
	pg, err = pager.Open(path, pager.Options{PoolPages: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	if tree, err = Load(pg, header); err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, tree, model)
}

// checkCanonical holds every page reachable from tree's root to
// writeNode's layout of its decoded node, and the tree's entries to model.
func checkCanonical(t *testing.T, tree *Tree, model map[string][]byte) {
	t.Helper()
	var walk func(id pager.PageID)
	walk = func(id pager.PageID) {
		page, err := tree.pg.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		n, err := decodeNode(id, page)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, pageOf(n)) {
			t.Fatalf("page %d is not writeNode's encoding of its node", id)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tree.root)

	if tree.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(model))
	}
	sorted := make([]string, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	i := 0
	err := tree.ascend(nil, nil, func(k, v []byte) bool {
		if i >= len(sorted) || string(k) != sorted[i] || !bytes.Equal(v, model[sorted[i]]) {
			t.Fatalf("entry %d: %.12q differs from the model", i, k)
		}
		i++
		return true
	})
	if err != nil || i != len(sorted) {
		t.Fatalf("Ascend visited %d of %d entries: %v", i, len(sorted), err)
	}
}

// pageOf is the payload writeNode stores for n: its encoding, then zeros.
func pageOf(n *node) []byte {
	page := make([]byte, pager.PayloadSize)
	copy(page, encodeNode(n))
	return page
}

// A Put that does not split splices the pooled leaf in place through the
// entry offsets its frame keeps, and allocates nothing, whether it replaces
// a record, which leaves the header page as it was, or adds a key, which
// writes the header's new count.
func TestPutAllocs(t *testing.T) {
	tree, _, _ := tempTree(t)
	fillGraph(t, tree, 600, 2, 1)
	rec := graphKey("n!", 3)
	v, _, err := tree.Get(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := tree.Put(rec, v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("replacing a record: %.1f allocations, want 0", n)
	}
	adj := graphKey("o!", 3, 1<<40)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := tree.Delete(adj); err != nil {
			t.Fatal(err)
		}
		if err := tree.Put(adj, v[:8]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("deleting and re-adding a key: %.1f allocations, want 0", n)
	}
}

// locate is the linear walk that target replaced, kept as its oracle: it
// opens the node encoded in page, which must be a leaf or not as leaf says,
// walks every entry, and returns the span of the entry a write targets: in
// a leaf the first entry whose key is >= key, cut past it when that key is
// key (found); in an internal node entry i. at == cut == end when the
// target lies past the last entry.
func locate(id pager.PageID, page []byte, leaf bool, key []byte, i int) (s span, found bool, err error) {
	c, err := openCursor(id, page)
	if err == nil && c.leaf != leaf {
		err = c.corrupt("node type")
	}
	if err != nil {
		return span{}, false, err
	}
	s.at = -1
	for n := 0; ; n++ {
		start := c.pos
		ok, err := c.next()
		if err != nil {
			return span{}, false, err
		}
		if s.at < 0 && (!ok || (leaf && bytes.Compare(c.key, key) >= 0) || (!leaf && n == i)) {
			s.i, s.at, s.cut = n, start, start
			if found = ok && leaf && bytes.Equal(c.key, key); found {
				s.cut = c.pos
			}
		}
		if !ok {
			s.end = c.pos
			return s, found, nil
		}
	}
}

// TestSpliceOffsetsMatchWalk runs a seeded sequence of inserts, replaces
// with longer and shorter values, deletes, leaves deleted down to empty,
// splices refused for want of room, flushes, and puts that split leaves and
// internal nodes, once over a pool of four frames and once over a pool that
// holds every page. After every step each resident frame's entry offsets
// are empty or exactly what a fresh walk of its page derives, and the tree
// holds the model's entries in writeNode's layout. A leaf whose keys
// descend is corrupt to Put and Delete.
func TestSpliceOffsetsMatchWalk(t *testing.T) {
	for _, pool := range []int{4, 4096} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			gate := &readGate{FS: vfs.OSFS}
			pg, err := pager.Open(filepath.Join(t.TempDir(), "bt.pg"), pager.Options{PoolPages: pool, FS: gate})
			if err != nil {
				t.Fatal(err)
			}
			defer pg.Close()
			tree, _, err := Create(pg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(46))
			// Long keys keep internal nodes narrow, so they split too.
			keys := make([][]byte, 2000)
			for i := range keys {
				keys[i] = append(fmt.Appendf(nil, "k%05d-", rng.Intn(100000)), bytes.Repeat([]byte{'x'}, 60+rng.Intn(120))...)
			}
			model := map[string][]byte{}
			put := func(k, v []byte) {
				t.Helper()
				if err := tree.Put(k, v); err != nil {
					t.Fatalf("Put %.12q: %v", k, err)
				}
				model[string(k)] = v
			}
			del := func(k []byte) {
				t.Helper()
				ok, err := tree.Delete(k)
				if _, want := model[string(k)]; err != nil || ok != want {
					t.Fatalf("Delete %.12q = %v %v, want %v", k, ok, err, want)
				}
				delete(model, string(k))
			}
			kept := 0 // frames seen holding offsets
			for step := 0; step < 5000; step++ {
				k := keys[rng.Intn(len(keys))]
				v, had := model[string(k)]
				switch r := rng.Intn(100); {
				case r < 50:
					put(k, make([]byte, rng.Intn(100)))
				case r < 60 && had:
					put(k, make([]byte, len(v)+1+rng.Intn(60)))
				case r < 70 && had:
					put(k, v[:rng.Intn(len(v)+1)])
				case r < 90:
					del(k)
				case r < 98:
					refusePut(t, tree, k)
				case r < 99:
					for _, lk := range readNode(t, tree, leafOf(t, tree, k)).keys {
						del(lk)
					}
				default:
					if err := pg.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				kept += checkOffsets(t, tree, gate)
				checkCanonical(t, tree, model)
			}
			if d := depth(t, tree); d < 3 {
				t.Fatalf("tree has %d levels, want >= 3", d)
			}
			if kept < 5000 {
				t.Fatalf("only %d frames held offsets when checked", kept)
			}
		})
	}

	t.Run("descending keys", func(t *testing.T) {
		tree, pg, _ := tempTree(t)
		n := &node{leaf: true, keys: [][]byte{[]byte("b"), []byte("a")}, vals: [][]byte{[]byte("1"), []byte("2")}}
		if err := pg.Write(tree.root, encodeNode(n)); err != nil {
			t.Fatal(err)
		}
		for op, run := range map[string]func() error{
			"Put":    func() error { return tree.Put([]byte("c"), []byte("v")) },
			"Delete": func() error { _, err := tree.Delete([]byte("a")); return err },
		} {
			if err := run(); err == nil || !strings.Contains(err.Error(), "btree: corrupt key order") {
				t.Errorf("%s on a leaf with descending keys: err = %v, want btree: corrupt key order", op, err)
			}
			if page := readNode(t, tree, tree.root); !slices.EqualFunc(page.keys, n.keys, bytes.Equal) {
				t.Errorf("%s changed the corrupt leaf", op)
			}
		}
	})
}

// refusePut splices an entry too large for any page into the leaf that
// holds k, through the leaf's frame, as Put does before it splits: the
// splice must be refused and leave the page and its offsets true.
func refusePut(t *testing.T, tree *Tree, k []byte) {
	t.Helper()
	id := leafOf(t, tree, k)
	err := tree.pg.UpdateIndexed(id, func(page []byte, offs *[]uint16) (bool, error) {
		fits, _, err := putLeaf(id, page, offs, k, make([]byte, pager.PayloadSize))
		if fits {
			return true, fmt.Errorf("a %d-byte value fit leaf %d", pager.PayloadSize, id)
		}
		return false, err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkOffsets holds every resident frame's entry offsets to a fresh walk
// of its page and returns how many frames held offsets. A page out of the
// pool is skipped: gate fails its read, and a failed miss leaves the pool
// as it was.
func checkOffsets(t *testing.T, tree *Tree, gate *readGate) int {
	t.Helper()
	gate.closed = true
	defer func() { gate.closed = false }()
	kept := 0
	for i := 1; i < tree.pg.Pages(); i++ {
		id := pager.PageID(i)
		err := tree.pg.ViewIndexed(id, func(page []byte, offs *[]uint16) error {
			if len(*offs) == 0 {
				return nil
			}
			kept++
			c, err := openCursor(id, page)
			if err != nil {
				return err
			}
			var walked []uint16
			if err := c.index(&walked); err != nil || !slices.Equal(*offs, walked) {
				return fmt.Errorf("offsets %v, a fresh walk derives %v (%v)", *offs, walked, err)
			}
			return nil
		})
		if err != nil && !errors.Is(err, errGated) {
			t.Fatalf("page %d: %v", id, err)
		}
	}
	return kept
}

var errGated = errors.New("read gated")

// readGate fails every read while closed, so that a View of a page out of
// the pool fails without evicting anything.
type readGate struct {
	vfs.FS
	closed bool
}

func (g *readGate) OpenFile(path string) (vfs.File, error) {
	f, err := g.FS.OpenFile(path)
	return gatedFile{f, g}, err
}

type gatedFile struct {
	vfs.File
	gate *readGate
}

func (f gatedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.gate.closed {
		return 0, errGated
	}
	return f.File.ReadAt(p, off)
}
