package main

import (
	"context"
	"reflect"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/engines/neograph"
	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/gql"
	"gdbm/internal/query/plan"
	"gdbm/internal/storage/vfs"
)

var (
	_ vfs.FS   = (*countFS)(nil)
	_ vfs.File = (*countFile)(nil)
)

// planAndRows compiles and runs stmt over src.
func planAndRows(t *testing.T, stmt string, src plan.Source) (string, [][]model.Value) {
	t.Helper()
	st, err := gql.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := plan.CompileFor(st.Match, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Collect(tree, src, st.Columns())
	if err != nil {
		t.Fatal(err)
	}
	return tree.String(), res.Rows
}

// TestDecoratorsKeepPlanAndRows: the planner probes its source for
// statistics and sorted adjacency by type assertion, so a decorator that
// hid either would silently measure a different plan. Every read kind must
// compile to the same operator tree and return the same rows with and
// without the timing source, on both engine configurations, and the
// counting filesystem must not change an answer either.
func TestDecoratorsKeepPlanAndRows(t *testing.T) {
	const nodes = 400
	open := func(opts engine.Options) *neograph.DB {
		db, err := neograph.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if _, err := gen.Generate(graphSpec(nodes, 9), db); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex("idx"); err != nil {
			t.Fatal(err)
		}
		return db
	}
	cfs := newCountFS()
	engines := map[string]*neograph.DB{
		"memory":          open(engine.Options{}),
		"disk":            open(engine.Options{Dir: t.TempDir(), PoolPages: 16}),
		"disk+countFS":    open(engine.Options{Dir: t.TempDir(), PoolPages: 16, FS: cfs, Metrics: obs.NewRegistry()}),
		"disk+caches+cFS": open(engine.Options{Dir: t.TempDir(), CacheBytes: 1 << 20, FS: newCountFS()}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reference [][]model.Value
	for k := kPoint; k < kSet; k++ {
		for _, node := range []int{0, 3, 77, nodes - 1} {
			stmt := op{k: k, node: node}.stmt(0)
			reference = nil
			for name, db := range engines {
				plain, rows := planAndRows(t, stmt, plan.WithCancel(ctx, db.Core))
				ts := &timedSource{src: db.Core}
				timed, timedRows := planAndRows(t, stmt, plan.WithCancel(ctx, ts))
				if plain != timed {
					t.Errorf("%s: %s: plan changed under the timing source:\n  plain %s\n  timed %s", name, stmt, plain, timed)
				}
				if !reflect.DeepEqual(rows, timedRows) {
					t.Errorf("%s: %s: rows changed under the timing source", name, stmt)
				}
				if ts.calls == 0 {
					t.Errorf("%s: %s: the timing source saw no call", name, stmt)
				}
				// Engines hand rows out in their own order; compare
				// across engines by digest.
				var a answer
				for _, r := range rows {
					a.addValues(r)
				}
				var ref answer
				if reference == nil {
					reference = rows
				}
				for _, r := range reference {
					ref.addValues(r)
				}
				if a != ref {
					t.Errorf("%s: %s: answer differs between engine configurations", name, stmt)
				}
			}
		}
	}
	if cfs.reads.Load() == 0 || cfs.writes.Load() == 0 || cfs.readBytes.Load() == 0 {
		t.Errorf("the counting filesystem counted nothing: %d reads, %d writes", cfs.reads.Load(), cfs.writes.Load())
	}
}
