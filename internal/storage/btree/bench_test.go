package btree

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gdbm/internal/storage/pager"
)

// graphKey builds a key shaped like kvgraph's: prefix, then each id as 8
// big-endian bytes, the ids joined by '!' (o!<node>!<edge>).
func graphKey(prefix string, ids ...uint64) []byte {
	k := []byte(prefix)
	for i, id := range ids {
		if i > 0 {
			k = append(k, '!')
		}
		k = binary.BigEndian.AppendUint64(k, id)
	}
	return k
}

// fillGraph puts the records of a graph with nodes nodes and deg out-edges
// per node into tree, in shuffled order: n!<id> and e!<id> with 8–300 byte
// values, o!<node>!<edge> with the 8-byte far node id. It returns what it
// stored, keyed by string(key).
func fillGraph(tb testing.TB, tree *Tree, nodes, deg int, seed int64) map[string][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	record := func() []byte {
		v := make([]byte, 8+rng.Intn(293))
		rng.Read(v)
		return v
	}
	ref := make(map[string][]byte, nodes*(1+2*deg))
	for n := 0; n < nodes; n++ {
		ref[string(graphKey("n!", uint64(n)))] = record()
		for d := 0; d < deg; d++ {
			e := uint64(n*deg + d)
			far := uint64(rng.Intn(nodes))
			ref[string(graphKey("e!", e))] = record()
			ref[string(graphKey("o!", uint64(n), e))] = binary.BigEndian.AppendUint64(nil, far)
		}
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	// Sorted first so the shuffle, and so the tree's shape, depends on seed
	// alone and not on map iteration order.
	slices.Sort(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if err := tree.Put([]byte(k), ref[k]); err != nil {
			tb.Fatalf("put %q: %v", k, err)
		}
	}
	return ref
}

// benchTree builds a 30 000-key graph tree in a pool that holds every page,
// so the benchmarks time the read path rather than the file.
func benchTree(b *testing.B) *Tree {
	b.Helper()
	tree, pg := openBenchTree(b, filepath.Join(b.TempDir(), "bt.pg"))
	b.Cleanup(func() { pg.Close() })
	return tree
}

// openBenchTree builds benchTree's tree in a new page file at path and
// returns it with its pager, which the caller closes.
func openBenchTree(b *testing.B, path string) (*Tree, *pager.Pager) {
	b.Helper()
	pg, err := pager.Open(path, pager.Options{PoolPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	tree, _, err := Create(pg)
	if err != nil {
		pg.Close()
		b.Fatal(err)
	}
	fillGraph(b, tree, 6000, 2, 1)
	return tree, pg
}

var sinkVal []byte

// BenchmarkTreeGet reads node records, the point read a traversal makes per
// visited node.
func BenchmarkTreeGet(b *testing.B) {
	tree := benchTree(b)
	keys := make([][]byte, 6000)
	for n := range keys {
		keys[n] = graphKey("n!", uint64(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok, err := tree.Get(keys[i%len(keys)])
		if err != nil || !ok {
			b.Fatalf("get %d: %v %v", i%6000, ok, err)
		}
		sinkVal = v
	}
}

// BenchmarkTreeAscendPrefix scans one node's out-adjacency, the range read
// an expand makes.
func BenchmarkTreeAscendPrefix(b *testing.B) {
	tree := benchTree(b)
	prefixes := make([][]byte, 6000)
	for n := range prefixes {
		prefixes[n] = append(graphKey("o!", uint64(n)), '!')
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := 0
		err := tree.AscendPrefix(prefixes[i%len(prefixes)], func(_, v []byte) bool {
			sinkVal = v
			seen++
			return true
		})
		if err != nil || seen != 2 {
			b.Fatalf("scan %d: %d entries, %v", i%6000, seen, err)
		}
	}
}

// BenchmarkTreePut writes the records a load writes: a replaced node record
// of the same size, which splices the leaf in place, and a fresh adjacency
// key, which now and then splits a leaf and its parent.
func BenchmarkTreePut(b *testing.B) {
	b.Run("replace", func(b *testing.B) {
		tree := benchTree(b)
		keys := make([][]byte, 6000)
		vals := make([][]byte, len(keys))
		for n := range keys {
			keys[n] = graphKey("n!", uint64(n))
			v, ok, err := tree.Get(keys[n])
			if err != nil || !ok {
				b.Fatalf("get %d: %v %v", n, ok, err)
			}
			vals[n] = v
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tree.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	// insert starts a fresh tree, untimed, every perTree Puts and adds the
	// same perTree keys to each, so every timed Put meets a tree of the same
	// size whatever b.N is.
	b.Run("insert", func(b *testing.B) {
		const perTree = 6000
		path := filepath.Join(b.TempDir(), "bt.pg")
		far := binary.BigEndian.AppendUint64(nil, 42)
		var tree *Tree
		var pg *pager.Pager
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % perTree
			if j == 0 {
				b.StopTimer()
				if pg != nil {
					pg.Close()
					if err := os.Remove(path); err != nil {
						b.Fatal(err)
					}
				}
				tree, pg = openBenchTree(b, path)
				b.StartTimer()
			}
			if err := tree.Put(graphKey("o!", uint64(j), 1<<40+uint64(j)), far); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer() // Close flushes the file: not a Put's cost
		pg.Close()
	})
}
