package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"gdbm/internal/storage/pager"
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

// A Put that does not split writes the pooled leaf and the header in place
// and allocates nothing, whether it replaces a record or adds a key.
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
