package btree

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"gdbm/internal/storage/pager"
)

// FuzzNodeDecode feeds arbitrary page bytes to decodeNode, which the write
// path uses, and to the cursor the read path walks the page with. Neither
// may panic; both accept or both refuse a page; on an accepted page the
// cursor yields exactly the decoded entries and link, and on a sorted one
// its searches agree with a binary search and childIndex on the decoded node:
// seek on a leaf, bisect on an internal node.
// The seeds are the pages of a built tree and its leaves after deletes.
func FuzzNodeDecode(f *testing.F) {
	pg, err := pager.Open(filepath.Join(f.TempDir(), "bt.pg"), pager.Options{PoolPages: 64})
	if err != nil {
		f.Fatal(err)
	}
	tree, _, err := Create(pg)
	if err != nil {
		f.Fatal(err)
	}
	ref := fillGraph(f, tree, 300, 2, 1)
	for id := 1; id < pg.Pages(); id++ {
		page, err := pg.Read(pager.PageID(id))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page)
	}
	// Leaves after Delete has spliced every third entry out in place.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i := 0; i < len(keys); i += 3 {
		if _, err := tree.Delete([]byte(keys[i])); err != nil {
			f.Fatal(err)
		}
	}
	for _, l := range leafChain(f, tree) {
		page, err := pg.Read(l.id)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page)
	}
	if err := pg.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{typeLeaf, 0, 1, 0, 0, 0, 0, 0x89, 0x80, 0x04})
	f.Add([]byte{typeInternal, 0, 1, 0, 0, 0, 9, 1, 'k', 0, 0})

	f.Fuzz(func(t *testing.T, page []byte) {
		const id = 7
		n, decErr := decodeNode(id, page)
		c, curErr := openCursor(id, page)
		var keys, vals [][]byte
		var children []pager.PageID
		if curErr == nil {
			if !c.leaf {
				children = append(children, c.link)
			}
			for {
				ok, err := c.next()
				if err != nil {
					curErr = err
					break
				}
				if !ok {
					break
				}
				keys = append(keys, c.key)
				if c.leaf {
					vals = append(vals, c.val)
				} else {
					children = append(children, c.child)
				}
			}
		}
		if (decErr == nil) != (curErr == nil) {
			t.Fatalf("decodeNode err = %v, cursor err = %v", decErr, curErr)
		}
		if decErr != nil {
			return
		}
		if n.leaf != c.leaf || !slices.EqualFunc(n.keys, keys, bytes.Equal) || !slices.EqualFunc(n.vals, vals, bytes.Equal) {
			t.Fatalf("cursor entries differ from decodeNode's")
		}
		if n.leaf && n.next != c.link {
			t.Fatalf("next = %d, cursor link %d", n.next, c.link)
		}
		if !n.leaf && !slices.Equal(n.children, children) {
			t.Fatalf("children = %v, cursor %v", n.children, children)
		}

		if !ascending(n.keys) {
			return
		}
		probes := append([][]byte(nil), n.keys...)
		for _, k := range n.keys {
			probes = append(probes, append(append([]byte(nil), k...), 0))
		}
		// The offsets bisect derives on the first probe serve the rest, as
		// they do from a pooled frame.
		var offs []uint16
		for _, k := range probes {
			c, _ := openCursor(id, page)
			if n.leaf {
				found, err := c.seek(k)
				i, want := slices.BinarySearchFunc(n.keys, k, bytes.Compare)
				if err != nil || found != want || (found && !bytes.Equal(c.val, n.vals[i])) {
					t.Fatalf("seek %q = %v %v, want found=%v", k, found, err, want)
				}
				continue
			}
			if len(page) > pager.PayloadSize {
				break // bisect's 16-bit offsets serve a pager payload, not a longer input
			}
			child, i, err := c.bisect(k, &offs)
			if want := childIndex(n.keys, k); err != nil || i != want || child != n.children[want] {
				t.Fatalf("bisect %q = %d (index %d) %v, want %d (index %d)", k, child, i, err, n.children[want], want)
			}
		}
	})
}

// FuzzLeafSplice feeds arbitrary page bytes, a key and a value to putLeaf
// and deleteLeaf, the in-place writes of Put and Delete. Neither may panic.
// A page that does not decode to a leaf with strictly ascending keys is
// corrupt: both refuse it with an error. When either errors or the entry
// does not fit, the page is unchanged, so a corrupt leaf is never half
// rewritten. Otherwise the page decodes to the model's entries: the leaf
// with key's entry set at the first key >= key, or removed; and a page
// that held writeNode's layout still does. One offsets slice is carried
// from putLeaf into deleteLeaf on the page putLeaf left, as a pooled frame
// carries it; after every splice it must be what a fresh walk of the page
// derives, and an error leaves it as it was. On a sorted node of either
// kind, the span target finds by bisecting the offsets is the one the
// linear locate finds.
func FuzzLeafSplice(f *testing.F) {
	pg, err := pager.Open(filepath.Join(f.TempDir(), "bt.pg"), pager.Options{PoolPages: 64})
	if err != nil {
		f.Fatal(err)
	}
	tree, _, err := Create(pg)
	if err != nil {
		f.Fatal(err)
	}
	fillGraph(f, tree, 100, 2, 1)
	for i, l := range leafChain(f, tree) {
		page, err := pg.Read(l.id)
		if err != nil {
			f.Fatal(err)
		}
		k := l.keys[i%len(l.keys)]
		f.Add(page, k, []byte("replaced"))
		f.Add(page, append(append([]byte(nil), k...), 0), bytes.Repeat([]byte{'v'}, 40*i))
	}
	if err := pg.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{typeLeaf, 0, 1, 0, 0, 0, 0, 0x89, 0x80, 0x04}, []byte("k"), []byte("v"))
	f.Add([]byte{typeInternal, 0, 0, 0, 0, 0, 9}, []byte("k"), []byte("v"))
	descending := encodeNode(&node{leaf: true, keys: [][]byte{[]byte("b"), []byte("a")}, vals: [][]byte{[]byte("1"), []byte("2")}})
	f.Add(descending, []byte("a"), []byte("v"))

	f.Fuzz(func(t *testing.T, in, key, val []byte) {
		const id = 7
		page := make([]byte, pager.PayloadSize)
		copy(page, in)
		before := slices.Clone(page)
		n, decErr := decodeNode(id, page)
		canonical := decErr == nil && bytes.Equal(page, pageOf(n))
		sorted := decErr == nil && ascending(n.keys)

		if sorted {
			i := len(val) % (len(n.keys) + 1)
			var offs []uint16
			got, gotFound, err := target(id, page, &offs, n.leaf, key, i)
			want, wantFound, wantErr := locate(id, page, n.leaf, key, i)
			if err != nil || wantErr != nil || got != want || gotFound != wantFound {
				t.Fatalf("target = %+v %v %v, locate = %+v %v %v", got, gotFound, err, want, wantFound, wantErr)
			}
		}

		// cur models the page a splice starts from: nil when it is
		// corrupt as a leaf.
		var cur *node
		if sorted && n.leaf {
			cur = n
		}
		var offs []uint16
		check := func(op string, prev []byte, prevOffs []uint16, changed bool, err error, want *node) {
			t.Helper()
			if (err == nil) != (cur != nil) {
				t.Fatalf("%s: err = %v, but the page decodes to a sorted leaf: %v", op, err, cur != nil)
			}
			if err != nil {
				if !bytes.Equal(page, prev) || !slices.Equal(offs, prevOffs) {
					t.Fatalf("%s changed the page or its offsets on error %v", op, err)
				}
				return
			}
			c, _ := openCursor(id, page)
			var walked []uint16
			if err := c.index(&walked); err != nil || !slices.Equal(offs, walked) {
				t.Fatalf("%s: offsets %v, a fresh walk derives %v (%v)", op, offs, walked, err)
			}
			if !changed {
				if !bytes.Equal(page, prev) {
					t.Fatalf("%s changed the page it refused", op)
				}
				return
			}
			got, err := decodeNode(id, page)
			if err != nil {
				t.Fatalf("%s left a page that does not decode: %v", op, err)
			}
			if !got.leaf || got.next != want.next || !slices.EqualFunc(got.keys, want.keys, bytes.Equal) || !slices.EqualFunc(got.vals, want.vals, bytes.Equal) {
				t.Fatalf("%s: entries differ from the model's", op)
			}
			if canonical && !bytes.Equal(page, pageOf(want)) {
				t.Fatalf("%s: page is not writeNode's layout of the model", op)
			}
			cur = want
		}

		put, had := modelPut(cur, key, val)
		prev, prevOffs := slices.Clone(page), slices.Clone(offs)
		fits, found, err := putLeaf(id, page, &offs, key, val)
		if cur != nil && !fits && len(encodeNode(put)) <= pager.PayloadSize {
			t.Fatalf("putLeaf refused an entry that fits")
		}
		if cur != nil && found != had {
			t.Fatalf("putLeaf found = %v, want %v", found, had)
		}
		check("putLeaf", prev, prevOffs, fits, err, put)

		// The offsets putLeaf left serve deleteLeaf on the page it left;
		// then a fresh slice serves deleteLeaf on the page as it came in,
		// where key may be absent.
		for _, fresh := range []bool{false, true} {
			if fresh {
				copy(page, before)
				offs, cur = nil, nil
				if sorted && n.leaf {
					cur = n
				}
			}
			del := modelDelete(cur, key)
			prev, prevOffs = slices.Clone(page), slices.Clone(offs)
			found, err = deleteLeaf(id, page, &offs, key)
			if found != (del != nil) {
				t.Fatalf("deleteLeaf found = %v", found)
			}
			check("deleteLeaf", prev, prevOffs, found, err, del)
		}
	})
}

// modelPut returns leaf n with key's entry set to val at the first key >=
// key, and whether key was there; nil for a nil n.
func modelPut(n *node, key, val []byte) (*node, bool) {
	if n == nil {
		return nil, false
	}
	i, found := slices.BinarySearchFunc(n.keys, key, bytes.Compare)
	m := &node{leaf: true, next: n.next, keys: slices.Clone(n.keys), vals: slices.Clone(n.vals)}
	if found {
		m.vals[i] = val
	} else {
		m.keys, m.vals = slices.Insert(m.keys, i, key), slices.Insert(m.vals, i, val)
	}
	return m, found
}

// modelDelete returns leaf n without key's entry, or nil when n is nil or
// has no such entry.
func modelDelete(n *node, key []byte) *node {
	if n == nil {
		return nil
	}
	i, found := slices.BinarySearchFunc(n.keys, key, bytes.Compare)
	if !found {
		return nil
	}
	return &node{leaf: true, next: n.next, keys: slices.Delete(slices.Clone(n.keys), i, i+1), vals: slices.Delete(slices.Clone(n.vals), i, i+1)}
}

func ascending(keys [][]byte) bool {
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return false
		}
	}
	return true
}
