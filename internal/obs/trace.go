package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one completed, named interval of a trace. Start is the offset
// from the trace's start; Depth is the number of spans open when this one
// began (0 for top-level spans), so non-overlapping wall-time accounting
// sums the depth-0 spans only.
type Span struct {
	Name  string        `json:"name"`
	Depth int           `json:"depth"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// Trace accumulates the spans and counters of one query execution. It is
// carried through context.Context (WithTrace / FromContext); code that
// may run without tracing calls the methods on whatever FromContext
// returns — every method is a cheap no-op on a nil receiver, which is the
// "tracing off" fast path.
//
// Spans must nest within one goroutine; concurrent helpers contribute
// through Add, which is safe from any goroutine.
type Trace struct {
	name  string
	start time.Time

	mu       sync.Mutex
	open     int // currently open spans, for Depth
	spans    []Span
	counters map[string]int64
	wall     time.Duration
	done     bool
}

// New starts a trace named after the work it times (usually the query
// text or kernel name).
func New(name string) *Trace {
	return &Trace{name: name, start: time.Now(), counters: map[string]int64{}}
}

// Name returns the trace's name; empty on a nil receiver.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

type ctxKey struct{}

// WithTrace returns a context carrying t. A nil trace returns ctx
// unchanged, so callers can thread an optional trace unconditionally.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil when tracing is
// off. The nil result is usable directly: all Trace methods no-op on it.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// noopEnd is the shared end function of the tracing-off fast path.
var noopEnd = func() {}

// StartSpan opens a named span and returns the function that closes it.
// The end function must be called on every return path of the function
// that opened the span; `defer t.StartSpan("x")()` is the common form. The
// engines' and languages' spans are held to their exact shape by
// diff.TestTracedUntracedQueryTwins, so a discarded end function at any of
// those sites fails there. Calling the
// end function more than once records the span once, at the first call.
// On a nil receiver StartSpan returns a shared no-op.
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return noopEnd
	}
	t.mu.Lock()
	depth := t.open
	t.open++
	t.mu.Unlock()
	start := time.Since(t.start)
	var once sync.Once
	return func() {
		once.Do(func() {
			dur := time.Since(t.start) - start
			t.mu.Lock()
			t.open--
			t.spans = append(t.spans, Span{Name: name, Depth: depth, Start: start, Dur: dur})
			t.mu.Unlock()
		})
	}
}

// Add accumulates delta into the named trace counter (cache hits by tier,
// pages read, WAL syncs, queue-wait nanoseconds, ...). Safe from any
// goroutine; a no-op on nil receivers and zero deltas.
func (t *Trace) Add(counter string, delta int64) {
	if t == nil || delta == 0 {
		return
	}
	t.mu.Lock()
	t.counters[counter] += delta
	t.mu.Unlock()
}

// Finish fixes the trace's wall time at the first call and returns it.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	wall := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.done = true
		t.wall = wall
	}
	return t.wall
}

// Wall returns the finished wall time (zero before Finish or on nil).
func (t *Trace) Wall() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wall
}

// Spans returns a copy of the completed spans in completion order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Counters returns a copy of the trace counters.
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// Record renders the finished trace as one structured line — the
// slow-query log format (see DESIGN.md "Observability contract"):
//
//	trace="<name>" wall_ns=<n> span=<name>@<depth>:<dur_ns>... ctr=<name>:<v>...
//
// Spans appear in completion order; counters sorted by name. Empty on a
// nil receiver.
func (t *Trace) Record() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "trace=%q wall_ns=%d", t.name, t.wall.Nanoseconds())
	for _, s := range t.spans {
		fmt.Fprintf(&b, " span=%s@%d:%d", s.Name, s.Depth, s.Dur.Nanoseconds())
	}
	keys := make([]string, 0, len(t.counters))
	for k := range t.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " ctr=%s:%d", k, t.counters[k])
	}
	return b.String()
}
