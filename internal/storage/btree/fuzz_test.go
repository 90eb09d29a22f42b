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
// its searches agree with search and childIndex on the decoded node.
func FuzzNodeDecode(f *testing.F) {
	pg, err := pager.Open(filepath.Join(f.TempDir(), "bt.pg"), pager.Options{PoolPages: 64})
	if err != nil {
		f.Fatal(err)
	}
	tree, _, err := Create(pg)
	if err != nil {
		f.Fatal(err)
	}
	fillGraph(f, tree, 300, 2, 1)
	for id := 1; id < pg.Pages(); id++ {
		page, err := pg.Read(pager.PageID(id))
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
		for _, k := range probes {
			c, _ := openCursor(id, page)
			if n.leaf {
				found, err := c.seek(k)
				i, want := search(n.keys, k)
				if err != nil || found != want || (found && !bytes.Equal(c.val, n.vals[i])) {
					t.Fatalf("seek %q = %v %v, want found=%v", k, found, err, want)
				}
				continue
			}
			child, err := c.childFor(k)
			if want := n.children[childIndex(n.keys, k)]; err != nil || child != want {
				t.Fatalf("childFor %q = %d %v, want %d", k, child, err, want)
			}
		}
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
