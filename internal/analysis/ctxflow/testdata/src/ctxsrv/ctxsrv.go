// Package ctxsrv is a ctxflow fixture; analysistest presents it under a
// virtual import path inside internal/server.
package ctxsrv

import "context"

type result struct{}

type sink struct{}

// eng mimics an engine's query surface: the streaming method of
// engine.Querier plus the buffered helper's shape.
type eng struct{}

func (eng) QueryStream(ctx context.Context, stmt string, s sink) error { return nil }
func (eng) QueryContext(ctx context.Context, stmt string) (result, error) {
	return result{}, nil
}

// lang mimics the query languages' entry points: one streaming dispatch
// and one collecting wrapper each.
type lang struct{}

func (lang) ExecStreamCtx(ctx context.Context, stmt string, s sink) error { return nil }
func (lang) ExecCtx(ctx context.Context, stmt string) error               { return nil }
func (lang) RunStreamCtx(ctx context.Context, q string, s sink) error     { return nil }
func (lang) RunCtx(ctx context.Context, q string) error                   { return nil }

// decoy has a QueryStream whose first parameter is not context.Context;
// the sever rule must not fire on it.
type decoy struct{}

func (decoy) QueryStream(n int, stmt string) error { return nil }

// Violations.

func seversBackground(ctx context.Context, e eng) {
	e.QueryContext(context.Background(), "q") // want `context\.Background\(\) severs the request context`
}

func seversTODO(ctx context.Context, e eng) {
	e.QueryContext(context.TODO(), "q") // want `context\.TODO\(\) severs the request context`
}

func seversStream(ctx context.Context, e eng) {
	// The entry point the server actually uses.
	e.QueryStream(context.Background(), "q", sink{}) // want `severs the request context at QueryStream`
}

func seversExec(ctx context.Context, l lang) {
	l.ExecCtx(context.Background(), "q") // want `severs the request context at ExecCtx`
}

func seversExecStream(ctx context.Context, l lang) {
	l.ExecStreamCtx(context.Background(), "q", sink{}) // want `severs the request context at ExecStreamCtx`
}

func seversRun(ctx context.Context, l lang) {
	l.RunCtx(context.Background(), "q") // want `severs the request context at RunCtx`
}

func seversRunStream(ctx context.Context, l lang) {
	l.RunStreamCtx(context.TODO(), "q", sink{}) // want `severs the request context at RunStreamCtx`
}

func seversInsideClosure(e eng) {
	// Traversal descends into function literals.
	run(func() error {
		return e.QueryStream(context.Background(), "q", sink{}) // want `severs the request context at QueryStream`
	})
}

// Allowed.

func threads(ctx context.Context, e eng, l lang) {
	_ = e.QueryStream(ctx, "q", sink{})
	_, _ = e.QueryContext(ctx, "q")
	_ = l.ExecStreamCtx(ctx, "q", sink{})
	_ = l.ExecCtx(ctx, "q")
	_ = l.RunStreamCtx(ctx, "q", sink{})
	_ = l.RunCtx(ctx, "q")
}

func derived(ctx context.Context, e eng) {
	// Deriving a tighter deadline from the request context keeps the
	// chain intact; only fresh roots are convicted.
	c, cancel := context.WithTimeout(ctx, 0)
	defer cancel()
	_ = e.QueryStream(c, "q", sink{})
}

func rootElsewhere(e eng) {
	// A root context at a non-query call site (shutdown budgets, signal
	// handling) is legitimate; only the query entry points are guarded.
	c, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_ = e.QueryStream(c, "q", sink{})
}

func wrongShape(d decoy) {
	// decoy.QueryStream does not take context.Context first.
	_ = d.QueryStream(0, "q")
}

func sanctionedSever(e eng) {
	// The directive is consumed (so it does not trip the unused-directive
	// hygiene check) and the diagnostic is routed to the suppressed set,
	// not reported here.
	_, _ = e.QueryContext(context.Background(), "q") //gdbvet:allow(ctxflow): fixture demonstrating suppression of the sever rule
}

// Known hole — a shape the analyzer deliberately skips, pinned here so
// the silence is a tested contract rather than an accident. If the
// analyzer ever grows flow-sensitivity, this line acquires a want comment
// instead of surprising downstream code.

func rootViaVariable(ctx context.Context, e eng) {
	// The package doc promises flow-insensitivity: a fresh root stored
	// in a variable before the call is not chased. The dynamic
	// cancellation tests are the backstop for this hole.
	c := context.Background()
	_ = e.QueryStream(c, "q", sink{})
}

func run(f func() error) { _ = f() }
