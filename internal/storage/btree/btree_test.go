package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"gdbm/internal/storage/pager"
)

func tempTree(t *testing.T) (*Tree, *pager.Pager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bt.pg")
	pg, err := pager.Open(path, pager.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	tree, _, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	return tree, pg, path
}

func TestPutGetDelete(t *testing.T) {
	tree, _, _ := tempTree(t)
	if err := tree.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tree.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	// Replace.
	tree.Put([]byte("k1"), []byte("v2"))
	v, _, _ = tree.Get([]byte("k1"))
	if string(v) != "v2" {
		t.Errorf("after replace: %q", v)
	}
	if tree.Len() != 1 {
		t.Errorf("len = %d", tree.Len())
	}
	// Delete.
	ok, err = tree.Delete([]byte("k1"))
	if err != nil || !ok {
		t.Fatalf("Delete = %v %v", ok, err)
	}
	if _, ok, _ := tree.Get([]byte("k1")); ok {
		t.Error("key still present after delete")
	}
	if ok, _ := tree.Delete([]byte("k1")); ok {
		t.Error("double delete reported true")
	}
	if tree.Len() != 0 {
		t.Errorf("len = %d", tree.Len())
	}
}

func TestEmptyAndOversizedKeys(t *testing.T) {
	tree, _, _ := tempTree(t)
	if err := tree.Put(nil, []byte("v")); err == nil {
		t.Error("empty key should fail")
	}
	if err := tree.Put(bytes.Repeat([]byte("k"), MaxEntry), []byte("v")); err == nil {
		t.Error("oversized entry should fail")
	}
	if _, ok, err := tree.Get([]byte("missing")); ok || err != nil {
		t.Errorf("Get missing = %v %v", ok, err)
	}
}

func TestManyKeysSplitAndOrder(t *testing.T) {
	tree, _, _ := tempTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := []byte(fmt.Sprintf("val-%d", i))
		if err := tree.Put(k, v); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	if tree.Len() != n {
		t.Fatalf("len = %d, want %d", tree.Len(), n)
	}
	// All retrievable.
	for i := 0; i < n; i += 97 {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v, ok, err := tree.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get %s = %q %v %v", k, v, ok, err)
		}
	}
	// Full ascend yields sorted order.
	var prev []byte
	count := 0
	tree.ascend(nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != n {
		t.Errorf("ascend visited %d, want %d", count, n)
	}
}

func TestAscendFromStart(t *testing.T) {
	tree, _, _ := tempTree(t)
	for i := 0; i < 100; i++ {
		tree.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	var got []string
	tree.ascend([]byte("k050"), nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 5
	})
	want := []string{"k050", "k051", "k052", "k053", "k054"}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestAscendPrefix(t *testing.T) {
	tree, _, _ := tempTree(t)
	tree.Put([]byte("a/1"), []byte("1"))
	tree.Put([]byte("a/2"), []byte("2"))
	tree.Put([]byte("b/1"), []byte("3"))
	var got []string
	tree.AscendPrefix([]byte("a/"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 2 || got[0] != "a/1" || got[1] != "a/2" {
		t.Errorf("prefix scan = %v", got)
	}
}

func TestPersistenceAcrossReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bt.pg")
	pg, err := pager.Open(path, pager.Options{PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	tree, header, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tree.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}

	pg2, err := pager.Open(path, pager.Options{PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	tree2, err := Load(pg2, header)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Len() != 1000 {
		t.Fatalf("reloaded len = %d", tree2.Len())
	}
	v, ok, err := tree2.Get([]byte("k0500"))
	if err != nil || !ok || string(v) != "v500" {
		t.Fatalf("reloaded Get = %q %v %v", v, ok, err)
	}
}

// Property: the tree behaves like a map for arbitrary insert sequences.
func TestTreeMatchesMapQuick(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val uint16
		Del bool
	}) bool {
		tree, _, _ := tempTreeQuick()
		if tree == nil {
			return false
		}
		ref := map[string]string{}
		for _, op := range ops {
			k := fmt.Sprintf("key-%d", op.Key)
			if op.Del {
				delete(ref, k)
				tree.Delete([]byte(k))
			} else {
				v := fmt.Sprintf("v%d", op.Val)
				ref[k] = v
				if err := tree.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
			}
		}
		if tree.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok, err := tree.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		// Ascend visits exactly the reference keys in sorted order.
		var keys []string
		tree.ascend(nil, nil, func(k, v []byte) bool { keys = append(keys, string(k)); return true })
		if len(keys) != len(ref) {
			return false
		}
		if !sort.StringsAreSorted(keys) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func tempTreeQuick() (*Tree, *pager.Pager, error) {
	dir, err := os.MkdirTemp("", "btquick")
	if err != nil {
		return nil, nil, err
	}
	quickDirs = append(quickDirs, dir)
	pg, err := pager.Open(filepath.Join(dir, "bt.pg"), pager.Options{PoolPages: 32})
	if err != nil {
		return nil, nil, err
	}
	quickPagers = append(quickPagers, pg)
	tree, _, err := Create(pg)
	return tree, pg, err
}

var (
	quickDirs   []string
	quickPagers []*pager.Pager
)

func TestMain(m *testing.M) {
	code := m.Run()
	for _, pg := range quickPagers {
		pg.Close()
	}
	for _, d := range quickDirs {
		os.RemoveAll(d)
	}
	os.Exit(code)
}
