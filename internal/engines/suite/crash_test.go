package suite

import (
	"fmt"
	"slices"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/storage/crashtest"
	"gdbm/internal/storage/vfs"
)

// crashExcluded names the storage-declaring engines the crash harness
// cannot judge, each with the reason.
var crashExcluded = map[string]string{
	"triplestore": "stores the Crash label as a type statement, not a node label, so Visible finds no Crash nodes",
	"hyperdb":     "has no node-scan surface for Visible (its atoms are reached through the hypergraph side type)",
}

// crashEngines are the engines run through the crash-recovery harness:
// every engine whose Features() declare External memory or Backend storage,
// minus crashExcluded. They persist through the same kv.Disk → pager stack
// but reach it through different surfaces (propcore, kvgraph embedding,
// and a language-fronted store).
func crashEngines(t *testing.T) []string {
	t.Helper()
	declared := storageEngines(t)
	for name := range crashExcluded {
		if !slices.Contains(declared, name) {
			t.Errorf("crashExcluded names %s, which declares no storage cell", name)
		}
	}
	var out []string
	for _, name := range declared {
		if _, ok := crashExcluded[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}

func crashVal(op int) string { return fmt.Sprintf("v-%d", op) }

// engineInst adapts an engine to crashtest.Instance: op i is one loaded
// node carrying both its op number and a derived value, committed by
// Flush. A failed flush is retryable (crashtest.Flusher), which is what
// drags the pager's dirty-until-synced bookkeeping into every scenario.
type engineInst struct {
	eng engine.Engine
}

func (e *engineInst) Commit(op int) error {
	ld, ok := e.eng.(engine.Loader)
	if !ok {
		return fmt.Errorf("%s: no Loader surface", e.eng.Name())
	}
	props := model.Props("op", op, "val", crashVal(op))
	if _, err := ld.LoadNode("Crash", props); err != nil {
		return err
	}
	if err := e.Flush(); err != nil {
		return fmt.Errorf("%w: %v", crashtest.ErrAppliedNotDurable, err)
	}
	return nil
}

func (e *engineInst) Flush() error {
	return e.eng.(engine.Persistent).Flush()
}

// nodeIter is the scan surface Visible needs; engines expose it either
// directly or through their graph accessor.
type nodeIter interface {
	Nodes(fn func(model.Node) bool) error
}

func (e *engineInst) Visible() (map[int]bool, error) {
	var it nodeIter
	switch src := e.eng.(type) {
	case nodeIter:
		it = src
	case interface{ Graph() model.MutableGraph }:
		it = src.Graph()
	default:
		return nil, fmt.Errorf("%s: no node scan surface", e.eng.Name())
	}
	vis := map[int]bool{}
	var inner error
	err := it.Nodes(func(n model.Node) bool {
		if n.Label != "Crash" {
			return true
		}
		op, ok := n.Props.Get("op").AsInt()
		if !ok {
			inner = fmt.Errorf("node %d: op property missing", n.ID)
			return false
		}
		val, ok := n.Props.Get("val").AsString()
		if !ok || val != crashVal(int(op)) {
			inner = fmt.Errorf("node %d: op %d carries wrong value %q", n.ID, op, val)
			return false
		}
		if vis[int(op)] {
			inner = fmt.Errorf("op %d visible twice", op)
			return false
		}
		vis[int(op)] = true
		return true
	})
	if err != nil {
		return nil, err
	}
	if inner != nil {
		return nil, inner
	}
	return vis, nil
}

func (e *engineInst) Close() error { return e.eng.Close() }

// TestEngineCrashRecovery runs each disk-backed engine through the crash
// harness: a power cut before every durability operation, failed and
// sticky-failed fsyncs (with retried flushes), corruption of every
// recovery read, and a second crash inside every recovery. Torn page
// writes are excluded: the engines overwrite pages in place, which
// detects torn pages by checksum but cannot repair them (see DESIGN.md,
// durability contract).
func TestEngineCrashRecovery(t *testing.T) {
	for _, name := range crashEngines(t) {
		t.Run(name, func(t *testing.T) {
			rep, err := crashtest.Run(crashtest.Config{
				Open: func(fs *vfs.FaultFS) (crashtest.Instance, error) {
					eng, err := engine.Open(name, engine.Options{Dir: "crash", PoolPages: 4, FS: fs})
					if err != nil {
						return nil, err
					}
					return &engineInst{eng: eng}, nil
				},
				Ops:          4,
				SyncFaults:   true,
				ReadFaults:   true,
				DoubleFaults: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range rep.Violations {
				if i == 5 {
					t.Errorf("... and %d more", len(rep.Violations)-5)
					break
				}
				t.Errorf("violation: %s", v)
			}
			if len(rep.Violations) > 0 {
				t.Fatalf("%s: %d violations over %d scenarios", name, len(rep.Violations), rep.Scenarios)
			}
			t.Logf("%s: %d scenarios, no violations", name, rep.Scenarios)
		})
	}
}
