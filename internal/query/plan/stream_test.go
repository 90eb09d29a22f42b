package plan

import (
	"testing"
	"unsafe"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
)

// TestCollectRowsOwnTheirBacking pins the Collector side of the Sink
// contract: Stream refills one row, so every collected row must be a copy
// with a backing array of its own.
func TestCollectRowsOwnTheirBacking(t *testing.T) {
	src, _ := people(t)
	op, err := Compile(&MatchSpec{
		Nodes:  []NodePat{{Var: "p", Label: "Person"}},
		Return: []Item{{Name: "name", Expr: query.Var{Name: "p", Prop: "name"}}, {Name: "p", Expr: query.Var{Name: "p"}}},
		Limit:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(op, src, []string{"name", "p"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	names := map[string]bool{}
	for i, a := range res.Rows {
		s, _ := a[0].AsString()
		names[s] = true
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
		hi := lo + uintptr(cap(a))*unsafe.Sizeof(model.Value{})
		for j, b := range res.Rows {
			p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
			if i != j && p >= lo && p < hi {
				t.Fatalf("rows %d and %d share a backing array", i, j)
			}
		}
	}
	if len(names) != 3 {
		t.Fatalf("collected names %v, want three distinct", names)
	}
}

// discardSink counts rows and keeps none.
type discardSink struct{ rows int }

func (*discardSink) Cols([]string) error { return nil }

func (d *discardSink) Row([]model.Value) error {
	d.rows++
	return nil
}

// TestStreamAllocsPerRow guards the row path: streaming a node scan into a
// sink that keeps nothing costs the same allocations at 1000 rows as at
// 10, so Stream allocates nothing per row.
func TestStreamAllocsPerRow(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts differ under -race")
	}
	allocsAt := func(n int) float64 {
		g := memgraph.New()
		for i := 0; i < n; i++ {
			if _, err := g.AddNode("Person", model.Props("rank", i)); err != nil {
				t.Fatal(err)
			}
		}
		src := UnindexedSource{g}
		op, err := Compile(&MatchSpec{
			Nodes:  []NodePat{{Var: "p", Label: "Person"}},
			Return: []Item{{Name: "p", Expr: query.Var{Name: "p"}}, {Name: "rank", Expr: query.Var{Name: "p", Prop: "rank"}}},
			Limit:  -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sink discardSink
		allocs := testing.AllocsPerRun(20, func() {
			sink.rows = 0
			if err := Stream(op, src, []string{"p", "rank"}, &sink); err != nil {
				t.Fatal(err)
			}
		})
		if sink.rows != n {
			t.Fatalf("streamed %d rows, want %d", sink.rows, n)
		}
		return allocs
	}
	small, large := allocsAt(10), allocsAt(1000)
	t.Logf("allocs per Stream: %.0f at 10 rows, %.0f at 1000 rows", small, large)
	if large > small {
		t.Fatalf("Stream allocates per row: %.0f allocs at 1000 rows against %.0f at 10", large, small)
	}
}
