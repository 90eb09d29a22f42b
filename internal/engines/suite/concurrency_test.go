package suite

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/engine/capability"
	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/storage/kv"
)

// Engines must tolerate concurrent readers alongside a writer — the survey
// counts a transaction/concurrency story among the qualifying components of
// a graph *database* (Section II). Run with -race in CI.
func TestConcurrentReadersAndWriter(t *testing.T) {
	for name, e := range openAll(t) {
		t.Run(name, func(t *testing.T) {
			l, ok := e.(engine.Loader)
			if !ok {
				t.Skip("no loader")
			}
			seedIDs := make([]model.NodeID, 0, 50)
			for i := 0; i < 50; i++ {
				id, err := l.LoadNode("Thing", model.Props("i", i))
				if err != nil {
					t.Fatal(err)
				}
				seedIDs = append(seedIDs, id)
			}
			for i := 0; i+1 < 50; i++ {
				if _, err := l.LoadEdge("next", seedIDs[i], seedIDs[i+1], nil); err != nil {
					t.Fatal(err)
				}
			}
			es := e.Essentials(context.Background())
			var wg sync.WaitGroup
			// One writer keeps inserting.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					l.LoadNode("Thing", model.Props("i", 1000+i))
				}
			}()
			// Several readers run essential queries concurrently.
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < 30; i++ {
						if es.NodeAdjacency != nil {
							es.NodeAdjacency(seedIDs[i%50], seedIDs[(i+1)%50])
						}
						if es.KNeighborhood != nil {
							es.KNeighborhood(seedIDs[(i*7)%50], 2)
						}
						if es.Summarization != nil {
							es.Summarization(algo.AggCount, "Thing", "")
						}
					}
				}(r)
			}
			wg.Wait()
			// The graph is consistent afterwards.
			if es.Summarization != nil {
				v, err := es.Summarization(algo.AggCount, "Thing", "")
				if err != nil {
					t.Fatal(err)
				}
				if n, _ := v.AsInt(); n < 150 {
					t.Errorf("count after concurrent load = %v", v)
				}
			}
		})
	}
}

// Querier engines must serve concurrent query streams.
func TestConcurrentQueries(t *testing.T) {
	e, err := engine.Open("neograph", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := e.(engine.Querier)
	if _, err := engine.QueryContext(context.Background(), q, `CREATE (a:P {name: 'ada'})`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if w%2 == 0 {
					if _, err := engine.QueryContext(context.Background(), q, fmt.Sprintf(`CREATE (x:P {name: 'w%d-%d'})`, w, i)); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := engine.QueryContext(context.Background(), q, `MATCH (p:P) RETURN count(*) AS n`); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	res, err := engine.QueryContext(context.Background(), q, `MATCH (p:P) RETURN count(*) AS n`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].Equal(model.Int(101)) {
		t.Errorf("final count = %v", res.Rows[0][0])
	}
}

// The tests below are minimal reproducers for the data races fixed in the
// concurrency sweep. Each fails under `go test -race` against the pre-fix
// code.

// Race: memgraph.SetNodeProp/SetEdgeProp used to mutate the record's
// property map in place. Readers receive shallow record copies that share
// that map, so a reader iterating Props after its read-lock was released
// raced the writer. The fix is copy-on-write: mutate a clone, swap the
// pointer.
func TestMemgraphPropWritesDoNotRaceRecordReaders(t *testing.T) {
	g := memgraph.New()
	n, _ := g.AddNode("P", model.Properties{"w": model.Int(0)})
	m, _ := g.AddNode("P", nil)
	e, _ := g.AddEdge("a", n, m, model.Properties{"w": model.Int(0)})

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			g.SetNodeProp(n, fmt.Sprintf("k%d", i%7), model.Int(int64(i)))
			g.SetEdgeProp(e, fmt.Sprintf("k%d", i%7), model.Int(int64(i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			nd, err := g.Node(n)
			if err != nil {
				t.Error(err)
				return
			}
			for range nd.Props { // iterate the map shared with the record
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			ed, err := g.Edge(e)
			if err != nil {
				t.Error(err)
				return
			}
			for range ed.Props {
			}
		}
	}()
	wg.Wait()
}

// Race: kvgraph mutations are multi-key read-modify-write sequences over
// the store (ID counter, record, adjacency lists). Two concurrent AddNode
// calls could read the same next-ID and collide. The fix serializes
// mutations behind a graph-level mutex.
func TestKVGraphConcurrentMutationsKeepIDsUnique(t *testing.T) {
	g := kvgraph.New(kv.NewMemory())
	const workers, each = 8, 50
	ids := make([][]model.NodeID, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := g.AddNode("P", model.Props("w", w))
				if err != nil {
					t.Error(err)
					return
				}
				ids[w] = append(ids[w], id)
			}
		}(w)
	}
	wg.Wait()
	seen := map[model.NodeID]bool{}
	for _, part := range ids {
		for _, id := range part {
			if seen[id] {
				t.Fatalf("duplicate node id %d handed out concurrently", id)
			}
			seen[id] = true
		}
	}
	if g.Order() != workers*each {
		t.Fatalf("Order() = %d, want %d", g.Order(), workers*each)
	}

	// Concurrent edge insertion over the shared adjacency keys.
	all := make([]model.NodeID, 0, len(seen))
	for id := range seen {
		all = append(all, id)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				from := all[(w*each+i)%len(all)]
				to := all[(w*each+i*7+1)%len(all)]
				if _, err := g.AddEdge("a", from, to, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if g.Size() != workers*each {
		t.Fatalf("Size() = %d, want %d", g.Size(), workers*each)
	}
}

// Every engine whose profile allows Concurrent must serve snapshot readers
// while a writer mutates: the Essentials queries route through
// AcquireSnapshot, so this drives the whole read-concurrency contract.
func TestConcurrentEnginesServeReadersUnderWrites(t *testing.T) {
	for _, name := range engine.Names() {
		prof, ok := capability.ForEngine(name)
		if !ok || !prof.Allows(capability.Concurrent) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			opts := engine.Options{}
			if capability.NeedsDir(name) {
				opts.Dir = t.TempDir()
			}
			e, err := engine.Open(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ids := seed(t, e)
			api, hasAPI := e.(engine.GraphAPI)
			con := e.(engine.Concurrent)

			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // writer: new nodes plus property churn
				defer wg.Done()
				l := e.(engine.Loader)
				for i := 0; i < 200; i++ {
					if _, err := l.LoadNode("Thing", model.Props("rank", i)); err != nil {
						t.Error(err)
						return
					}
					if hasAPI {
						if err := api.SetNodeProp(ids[0], "rank", model.Int(int64(i))); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			go func() { // reader: k-neighborhood via snapshot
				defer wg.Done()
				kn := e.Essentials(context.Background()).KNeighborhood
				if kn == nil {
					return
				}
				for i := 0; i < 200; i++ {
					if _, err := kn(ids[4], 2); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() { // reader: raw snapshot scans
				defer wg.Done()
				for i := 0; i < 200; i++ {
					g, release, err := con.AcquireSnapshot()
					if err != nil {
						t.Error(err)
						return
					}
					err = g.Nodes(func(n model.Node) bool {
						for range n.Props {
						}
						return true
					})
					release()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
		})
	}
}
