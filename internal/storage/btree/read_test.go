package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gdbm/internal/storage/pager"
)

// A page whose lengths or pointers run past its end is refused with an
// error by every operation that reads it, never a slice-bounds panic.
func TestMalformedPageIsAnError(t *testing.T) {
	leaf := []byte{typeLeaf, 0, 1, 0, 0, 0, 0}
	leaf = binary.AppendUvarint(leaf, 65545) // key length past the page

	// One key that fills the page up to two bytes short of its child
	// pointer.
	internal := []byte{typeInternal, 0, 1, 0, 0, 0, 9}
	kl := pager.PayloadSize - len(internal) - 2 - 2
	internal = binary.AppendUvarint(internal, uint64(kl))
	internal = append(internal, bytes.Repeat([]byte{'k'}, kl)...)
	if len(internal) != pager.PayloadSize-2 {
		t.Fatalf("internal page is %d bytes, want %d", len(internal), pager.PayloadSize-2)
	}

	for name, page := range map[string][]byte{"leaf key length": leaf, "internal child pointer": internal} {
		t.Run(name, func(t *testing.T) {
			tree, pg, _ := tempTree(t)
			if err := pg.Write(tree.root, page); err != nil {
				t.Fatal(err)
			}
			key := bytes.Repeat([]byte{'z'}, 8)
			ops := map[string]func() error{
				"Get":    func() error { _, _, err := tree.Get(key); return err },
				"Ascend": func() error { return tree.ascend(key, nil, func(_, _ []byte) bool { return true }) },
				"Prefix": func() error { return tree.AscendPrefix(key, func(_, _ []byte) bool { return true }) },
				"Put":    func() error { return tree.Put(key, []byte("v")) },
				"Delete": func() error { _, err := tree.Delete(key); return err },
			}
			for op, run := range ops {
				if err := run(); err == nil || !strings.Contains(err.Error(), "btree: corrupt") {
					t.Errorf("%s on a malformed page: err = %v, want btree: corrupt", op, err)
				}
			}
		})
	}
}

// TestReadPathMatchesReference holds Get, Ascend and AscendPrefix to a
// sorted map on a tree of at least three levels whose leaf chain carries
// leaves emptied by Delete, which does not rebalance, and bounds the
// allocations of a Get that hits.
func TestReadPathMatchesReference(t *testing.T) {
	tree, _, _ := tempTree(t)
	ref := fillGraph(t, tree, 6000, 2, 7)
	if len(ref) < 30000 {
		t.Fatalf("only %d keys", len(ref))
	}
	before := map[pager.PageID][][]byte{}
	for _, l := range leafChain(t, tree) {
		before[l.id] = l.keys
	}

	// Interleave deletes of a contiguous run of edge records (whole leaves)
	// and of scattered adjacency entries with fresh puts.
	rng := rand.New(rand.NewSource(3))
	var deleted [][]byte
	for e := uint64(3000); e < 3600; e++ {
		for _, k := range [][]byte{graphKey("e!", e), graphKey("o!", e/2, e)} {
			if ok, err := tree.Delete(k); err != nil || !ok {
				t.Fatalf("delete %q: %v %v", k, ok, err)
			}
			delete(ref, string(k))
			deleted = append(deleted, k)
		}
		if e%4 == 0 {
			k := graphKey("o!", uint64(rng.Intn(6000)), 1<<40+e)
			v := binary.BigEndian.AppendUint64(nil, e)
			if err := tree.Put(k, v); err != nil {
				t.Fatal(err)
			}
			ref[string(k)] = v
		}
	}
	if tree.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(ref))
	}
	if d := depth(t, tree); d < 3 {
		t.Fatalf("tree has %d levels, want >= 3", d)
	}
	after := leafChain(t, tree)
	var empty []pager.PageID
	for _, l := range after {
		if len(l.keys) == 0 {
			empty = append(empty, l.id)
		}
	}
	if len(empty) == 0 {
		t.Fatal("no empty leaf in the chain")
	}

	sorted := make([]string, 0, len(ref))
	for k := range ref {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	// Get: every present key, every deleted key, and keys between keys.
	for _, k := range sorted {
		v, ok, err := tree.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(v, ref[k]) {
			t.Fatalf("Get %q = %x %v %v", k, v, ok, err)
		}
	}
	checkGetAllocs(t, tree, []byte(sorted[len(sorted)/2]))
	absent := append([][]byte{[]byte("a"), []byte("z")}, deleted...)
	for i := 0; i < len(sorted); i += 97 {
		absent = append(absent, []byte(sorted[i]+"\x00"), []byte(sorted[i][:len(sorted[i])-1]))
	}
	for _, k := range absent {
		if _, ok := ref[string(k)]; ok {
			continue
		}
		if v, ok, err := tree.Get(k); err != nil || ok {
			t.Fatalf("Get absent %q = %x %v %v", k, v, ok, err)
		}
	}

	check := func(what string, start, prefix []byte, limit int) {
		t.Helper()
		want := refScan(sorted, ref, start, prefix, limit)
		var got []string
		emit := func(k, v []byte) bool {
			got = append(got, string(k), string(v))
			return limit <= 0 || len(got) < 2*limit
		}
		var err error
		if prefix != nil {
			err = tree.AscendPrefix(prefix, emit)
		} else {
			err = tree.ascend(start, nil, emit)
		}
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s (start %q, prefix %q, limit %d): %d entries, want %d", what, start, prefix, limit, len(got)/2, len(want)/2)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d = %q, want %q", what, i/2, got[i], want[i])
			}
		}
	}

	// Ascend from before, between and after all keys, with and without an
	// early stop, and from inside an emptied leaf.
	check("Ascend nil", nil, nil, 0)
	check("Ascend before", []byte("a"), nil, 0)
	check("Ascend after", []byte("z"), nil, 0)
	for i := 0; i < len(sorted); i += 1009 {
		check("Ascend between", []byte(sorted[i]+"\x00"), nil, 0)
		check("Ascend early stop", []byte(sorted[i]), nil, 1+i%50)
	}
	for _, id := range empty {
		for _, k := range before[id] {
			check("Ascend from an empty leaf", k, nil, 40)
		}
	}

	// AscendPrefix on prefixes that cross a leaf boundary, that end exactly
	// at a leaf's last key, and that start in an emptied leaf.
	check("Prefix all edges", nil, []byte("e!"), 0)
	check("Prefix none", nil, []byte("x"), 0)
	crossed, ended := 0, 0
	for i := 0; i+1 < len(after); i += 7 {
		a, b := after[i], after[i+1]
		if len(a.keys) == 0 || len(b.keys) == 0 {
			continue
		}
		last, first := a.keys[len(a.keys)-1], b.keys[0]
		n := commonPrefix(last, first)
		if n > 0 {
			check("Prefix across a boundary", nil, last[:n], 0)
			check("Prefix across a boundary, early stop", nil, last[:n], 3)
			crossed++
		}
		if n < len(last) {
			check("Prefix ending at a leaf's last key", nil, last[:n+1], 0)
			ended++
		}
	}
	if crossed == 0 || ended == 0 {
		t.Fatalf("boundary prefixes: %d crossing, %d ending at a leaf", crossed, ended)
	}
	// The shortest prefix of a deleted key that still routes to its emptied
	// leaf, so the scan has live keys to reach beyond it.
	startedEmpty := 0
	for _, id := range empty {
		k := before[id][len(before[id])/2]
		shortest := 0
		for n := len(k); n >= 3 && leafOf(t, tree, k[:n]) == id; n-- {
			shortest = n
		}
		if shortest > 0 {
			check("Prefix starting in an empty leaf", nil, k[:shortest], 0)
			startedEmpty++
		}
	}
	if startedEmpty == 0 {
		t.Fatal("no prefix starts in an empty leaf")
	}
}

// A Get that hits costs the returned value's allocation and no more;
// TestReadPathMatchesReference asks the same of a three-level tree.
func TestGetHitAllocs(t *testing.T) {
	tree, _, _ := tempTree(t)
	fillGraph(t, tree, 4, 1, 1)
	if d := depth(t, tree); d != 1 {
		t.Fatalf("small tree has %d levels", d)
	}
	checkGetAllocs(t, tree, graphKey("n!", 2))
}

func checkGetAllocs(t *testing.T, tree *Tree, key []byte) {
	t.Helper()
	if n := testing.AllocsPerRun(100, func() { tree.Get(key) }); n > 2 {
		t.Errorf("Get on a %d-level tree: %.1f allocations, want <= 2", depth(t, tree), n)
	}
}

// Readers and a writer share one tree and its pool; run under -race. The
// writer adds adjacency keys and deletes every other one it added, and
// replaces edge records with values that grow, so its leaves are spliced
// in place, split and shrunk while the readers walk them.
func TestConcurrentReadsBesidePuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bt.pg")
	pg, err := pager.Open(path, pager.Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	tree, _, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillGraph(t, tree, 200, 2, 5)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := uint64(0); i < 2000; i++ {
			if err := tree.Put(graphKey("o!", i%200, 1<<32+i), []byte("far")); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				if ok, err := tree.Delete(graphKey("o!", (i-1)%200, 1<<32+i-1)); err != nil || !ok {
					t.Errorf("delete: %v %v", ok, err)
					return
				}
			}
			e := i % 400
			if err := tree.Put(graphKey("e!", e), grown(e, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := uint64(r); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := i % 200
				k := graphKey("n!", n)
				if v, ok, err := tree.Get(k); err != nil || !ok || !bytes.Equal(v, ref[string(k)]) {
					t.Errorf("Get %q = %x %v %v", k, v, ok, err)
					return
				}
				e := i % 400
				k = graphKey("e!", e)
				v, ok, err := tree.Get(k)
				if err != nil || !ok || (!bytes.Equal(v, ref[string(k)]) && !bytes.Equal(v, grown(e, uint64(len(v)-8)))) {
					t.Errorf("Get %q = %x %v %v", k, v, ok, err)
					return
				}
				seen := 0
				err = tree.AscendPrefix(append(graphKey("o!", n), '!'), func(_, _ []byte) bool {
					seen++
					return true
				})
				if err != nil || seen < 2 {
					t.Errorf("AscendPrefix node %d: %d entries, %v", n, seen, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// grown is the value TestConcurrentReadsBesidePuts's writer gives edge e at
// step i: its id, then i%600 bytes, so it grows as the writer runs.
func grown(e, i uint64) []byte {
	return append(binary.BigEndian.AppendUint64(nil, e), bytes.Repeat([]byte{byte(e)}, int(i%600))...)
}

// refScan is the reference for Ascend (prefix nil) and AscendPrefix: the
// emitted keys and values, alternating.
func refScan(sorted []string, ref map[string][]byte, start, prefix []byte, limit int) []string {
	if prefix != nil {
		start = prefix
	}
	var out []string
	for i := sort.SearchStrings(sorted, string(start)); i < len(sorted); i++ {
		k := sorted[i]
		if !strings.HasPrefix(k, string(prefix)) || (limit > 0 && len(out) == 2*limit) {
			break
		}
		out = append(out, k, string(ref[k]))
	}
	return out
}

type leafKeys struct {
	id   pager.PageID
	keys [][]byte
}

// leafChain decodes the leaves in chain order.
func leafChain(t testing.TB, tree *Tree) []leafKeys {
	t.Helper()
	id := leafOf(t, tree, nil)
	var out []leafKeys
	for id != 0 {
		n := readNode(t, tree, id)
		out = append(out, leafKeys{id, n.keys})
		id = n.next
	}
	return out
}

// leafOf returns the leaf a descent for key reaches (nil: the leftmost).
func leafOf(t testing.TB, tree *Tree, key []byte) pager.PageID {
	t.Helper()
	id := tree.root
	for {
		n := readNode(t, tree, id)
		if n.leaf {
			return id
		}
		id = n.children[childIndex(n.keys, key)]
	}
}

func depth(t *testing.T, tree *Tree) int {
	t.Helper()
	d := 1
	for id := tree.root; ; d++ {
		n := readNode(t, tree, id)
		if n.leaf {
			return d
		}
		id = n.children[0]
	}
}

// readNode decodes page id of tree.
func readNode(tb testing.TB, tree *Tree, id pager.PageID) *node {
	tb.Helper()
	page, err := tree.pg.Read(id)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := decodeNode(id, page)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// childIndex picks the child subtree for key in a decoded internal node, as
// the cursor's bisect does in place. A nil key selects the leftmost child.
func childIndex(keys [][]byte, key []byte) int {
	if key == nil {
		return 0
	}
	i, found := slices.BinarySearchFunc(keys, key, bytes.Compare)
	if found {
		return i + 1
	}
	return i
}

// childFor is the linear search bisect replaced, kept as its oracle: it
// walks an internal node's entries from the first and returns the child that
// holds key and its index. A nil key selects the leftmost.
func (c *cursor) childFor(key []byte) (pager.PageID, int, error) {
	child, i := c.link, 0
	if key == nil {
		return child, 0, nil
	}
	for {
		ok, err := c.next()
		if err != nil || !ok || bytes.Compare(c.key, key) > 0 {
			return child, i, err
		}
		child, i = c.child, i+1
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// A scan copies each leaf's entries into one fresh arena: its allocations
// do not grow with the number of entries a leaf emits, and entries kept
// after the callback keep their bytes, even when a kept key is appended to.
func TestAscendAllocatesPerLeaf(t *testing.T) {
	tree, _, _ := tempTree(t)
	sizes := map[uint64]uint64{1: 6, 2: 96} // node: out-degree
	for n, deg := range sizes {
		for i := uint64(0); i < deg; i++ {
			if err := tree.Put(graphKey("o!", n, i), graphKey("", 1000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d := depth(t, tree); d != 1 {
		t.Fatalf("tree has %d levels, want one leaf", d)
	}
	var kept [][2][]byte
	if err := tree.AscendPrefix(graphKey("o!", 2), func(k, v []byte) bool {
		kept = append(kept, [2][]byte{append(k, "tail"...), v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 96 {
		t.Fatalf("scan emitted %d entries, want 96", len(kept))
	}
	for i, e := range kept {
		if want := graphKey("o!", 2, uint64(i)); !bytes.Equal(e[0][:len(want)], want) {
			t.Fatalf("kept key %d = %x, want %x", i, e[0], want)
		}
		if want := graphKey("", 1000+uint64(i)); !bytes.Equal(e[1], want) {
			t.Fatalf("kept value %d = %x, want %x", i, e[1], want)
		}
	}
	scan := func(n uint64) float64 {
		return testing.AllocsPerRun(50, func() {
			tree.AscendPrefix(graphKey("o!", n), func(_, _ []byte) bool { return true })
		})
	}
	// The entry batch grows by doubling, so 90 more entries cost a few
	// more allocations, not one each.
	if few, many := scan(1), scan(2); many-few > 8 {
		t.Errorf("a scan emitting 96 entries allocates %.0f times, one emitting 6 %.0f", many, few)
	}
}
