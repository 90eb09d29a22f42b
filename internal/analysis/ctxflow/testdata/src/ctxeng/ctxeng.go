// Package ctxeng is a ctxflow fixture for rule 2; analysistest presents
// it under a virtual import path inside internal/engines, where only the
// kernel rule applies — the dispatch rule 1 must stay silent here.
package ctxeng

import "context"

type nodeID uint64

// kern mimics the cancellable kernel surface of internal/algo: every Ctx
// entry point takes a context first.
type kern struct{}

func (kern) BFSCtx(ctx context.Context, start nodeID) error                          { return nil }
func (kern) ReachableCtx(ctx context.Context, a, b nodeID) (bool, error)             { return false, nil }
func (kern) NeighborhoodCtx(ctx context.Context, n nodeID, k int) []nodeID           { return nil }
func (kern) FixedLengthPathsCtx(ctx context.Context, a, b nodeID, n int) []nodeID    { return nil }
func (kern) ShortestPathCtx(ctx context.Context, a, b nodeID) []nodeID               { return nil }
func (kern) FindMatchesCtx(ctx context.Context, p string) []nodeID                   { return nil }
func (kern) FindMatchesSeededCtx(ctx context.Context, p string, s []nodeID) []nodeID { return nil }
func (kern) AggregateNodePropCtx(ctx context.Context, label string) int              { return 0 }
func (kern) DistanceCtx(ctx context.Context, a, b nodeID) (int, error)               { return 0, nil }
func (kern) DiameterCtx(ctx context.Context) (int, error)                            { return 0, nil }
func (kern) SomethingElse(ctx context.Context, n nodeID) error                       { return nil }

// plain is a decoy: a kernel name whose first parameter is not a context.
type plain struct{}

func (plain) NeighborhoodCtx(notCtx int, n nodeID) []nodeID { return nil }

// eng mimics an engine's query surface. Rule 1 does not apply in engine
// scope, so its call below is not convicted.
type eng struct{}

type result struct{}

func (eng) QueryContext(ctx context.Context, stmt string) (result, error) {
	return result{}, nil
}

// Violations: a kernel fed an inline fresh root inside engine dispatch.

func seversNeighborhood(ctx context.Context, p kern) {
	p.NeighborhoodCtx(context.Background(), 1, 2) // want `context\.Background\(\) severs the caller's context at the query kernel NeighborhoodCtx`
}

func seversAggregate(ctx context.Context, p kern) {
	p.AggregateNodePropCtx(context.TODO(), "person") // want `context\.TODO\(\) severs the caller's context at the query kernel AggregateNodePropCtx`
}

func seversBFS(p kern) {
	_ = p.BFSCtx(context.Background(), 1) // want `severs the caller's context at the query kernel BFSCtx`
}

func seversDiameter(p kern) {
	_, _ = p.DiameterCtx(context.TODO()) // want `severs the caller's context at the query kernel DiameterCtx`
}

func seversInsideClosure(ctx context.Context, p kern) {
	// The engines' real shape: the kernel call sits inside an Essentials
	// closure. Traversal descends into function literals.
	f := func(n nodeID, k int) []nodeID {
		return p.NeighborhoodCtx(context.Background(), n, k) // want `severs the caller's context at the query kernel NeighborhoodCtx`
	}
	_ = f
}

// Allowed.

func threads(ctx context.Context, p kern) {
	_ = p.NeighborhoodCtx(ctx, 1, 2)
	_ = p.AggregateNodePropCtx(ctx, "person")
}

func derived(ctx context.Context, p kern) {
	c, cancel := context.WithTimeout(ctx, 0)
	defer cancel()
	_ = p.NeighborhoodCtx(c, 1, 2)
}

func notAKernel(p kern) {
	// Background at a ctx-taking call that is not a kernel is legitimate
	// in engine scope (startup code).
	_ = p.SomethingElse(context.Background(), 1)
}

func wrongShape(p plain) {
	// A kernel's name, but the first parameter is not context.Context.
	_ = p.NeighborhoodCtx(0, 1)
}

func entryPointRoot(e eng) (result, error) {
	// Rule 1 is dispatch-scope only: an engine-scope root at a query
	// entry point (startup code, self-checks) is NOT convicted here.
	return e.QueryContext(context.Background(), "q")
}

func sanctioned(p kern) {
	_ = p.NeighborhoodCtx(context.Background(), 1, 2) //gdbvet:allow(ctxflow): fixture demonstrating suppression of the kernel rule
}
