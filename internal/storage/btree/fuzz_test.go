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
// When either errors or the entry does not fit, the page is unchanged, so a
// corrupt leaf is never half rewritten. Otherwise the page decodes to the
// model's entries: the leaf with key's entry set at the first key >= key,
// or removed; and a page that held writeNode's layout still does.
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

	f.Fuzz(func(t *testing.T, in, key, val []byte) {
		const id = 7
		page := make([]byte, pager.PayloadSize)
		copy(page, in)
		before := slices.Clone(page)
		n, decErr := decodeNode(id, page)
		canonical := decErr == nil && bytes.Equal(page, pageOf(n))

		// The model: key's entry set or removed at the first key >= key.
		var put, del *node
		if decErr == nil && n.leaf {
			i := 0
			for i < len(n.keys) && bytes.Compare(n.keys[i], key) < 0 {
				i++
			}
			found := i < len(n.keys) && bytes.Equal(n.keys[i], key)
			put = &node{leaf: true, next: n.next, keys: slices.Clone(n.keys), vals: slices.Clone(n.vals)}
			del = &node{leaf: true, next: n.next, keys: slices.Clone(n.keys), vals: slices.Clone(n.vals)}
			if found {
				put.vals[i] = val
				del.keys = slices.Delete(del.keys, i, i+1)
				del.vals = slices.Delete(del.vals, i, i+1)
			} else {
				put.keys = slices.Insert(put.keys, i, key)
				put.vals = slices.Insert(put.vals, i, val)
				del = nil
			}
		}

		check := func(op string, changed bool, err error, want *node) {
			t.Helper()
			if (err == nil) != (put != nil) {
				t.Fatalf("%s: err = %v, but the page decodes to a leaf: %v", op, err, put != nil)
			}
			if !changed {
				if !bytes.Equal(page, before) {
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
		}

		fits, found, err := putLeaf(id, page, key, val)
		if put != nil && !fits && len(encodeNode(put)) <= pager.PayloadSize {
			t.Fatalf("putLeaf refused an entry that fits")
		}
		if put != nil && found != (len(put.keys) == len(n.keys)) {
			t.Fatalf("putLeaf found = %v", found)
		}
		check("putLeaf", fits, err, put)

		copy(page, before)
		found, err = deleteLeaf(id, page, key)
		if found != (del != nil) {
			t.Fatalf("deleteLeaf found = %v", found)
		}
		check("deleteLeaf", found, err, del)
	})
}

func ascending(keys [][]byte) bool {
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return false
		}
	}
	return true
}
