package obs

import (
	"context"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("bare context must carry no trace")
	}
	tr := New("q")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context round trip")
	}
	if got := WithTrace(context.Background(), nil); FromContext(got) != nil {
		t.Fatal("nil trace must not be stored")
	}
	if FromContext(nil) != nil {
		t.Fatal("nil context must yield nil trace")
	}
}

func TestSpanDepthAndOrder(t *testing.T) {
	tr := New("q")
	endOuter := tr.StartSpan("outer")
	endInner := tr.StartSpan("inner")
	endInner()
	endOuter()
	endNext := tr.StartSpan("next")
	endNext()
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Completion order: inner closes first.
	wantNames := []string{"inner", "outer", "next"}
	wantDepth := []int{1, 0, 0}
	for i, s := range spans {
		if s.Name != wantNames[i] || s.Depth != wantDepth[i] {
			t.Errorf("span %d = %s@%d, want %s@%d", i, s.Name, s.Depth, wantNames[i], wantDepth[i])
		}
	}
	// Top-level spans must account for (at most) the wall time.
	var top time.Duration
	for _, s := range spans {
		if s.Depth == 0 {
			top += s.Dur
		}
	}
	if top > tr.Wall() {
		t.Errorf("top-level span sum %v exceeds wall %v", top, tr.Wall())
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := New("q")
	end := tr.StartSpan("s")
	end()
	end()
	end()
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("repeated end calls recorded %d spans, want 1", got)
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr := New("q")
	w1 := tr.Finish()
	time.Sleep(time.Millisecond)
	if w2 := tr.Finish(); w2 != w1 {
		t.Fatalf("second Finish changed wall: %v -> %v", w1, w2)
	}
}

func TestAddConcurrent(t *testing.T) {
	tr := New("q")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Add("hits", 1)
			}
		}()
	}
	wg.Wait()
	if got := tr.Counters()["hits"]; got != 8*500 {
		t.Fatalf("hits = %d, want %d", got, 8*500)
	}
}

func TestRecordFormat(t *testing.T) {
	tr := New(`MATCH (a) RETURN a`)
	end := tr.StartSpan("parse")
	end()
	tr.Add("cache.page.hits", 3)
	tr.Add("adj.scans", 1)
	tr.Finish()
	rec := tr.Record()
	if strings.ContainsRune(rec, '\n') {
		t.Fatal("record must be one line")
	}
	// Counters render sorted by name after the spans.
	re := regexp.MustCompile(`^trace="MATCH \(a\) RETURN a" wall_ns=\d+ span=parse@0:\d+ ctr=adj\.scans:1 ctr=cache\.page\.hits:3$`)
	if !re.MatchString(rec) {
		t.Fatalf("record %q does not match schema %q", rec, re)
	}
}

// TestNilTraceFastPath exercises the tracing-off path end to end: every
// method must no-op without allocating observable state.
func TestNilTraceFastPath(t *testing.T) {
	var tr *Trace
	end := tr.StartSpan("x")
	end()
	tr.Add("c", 1)
	if tr.Finish() != 0 || tr.Wall() != 0 {
		t.Fatal("nil trace times must be zero")
	}
	if tr.Spans() != nil || tr.Counters() != nil {
		t.Fatal("nil trace must carry no spans or counters")
	}
	if tr.Record() != "" || tr.Name() != "" {
		t.Fatal("nil trace renders empty")
	}
}
