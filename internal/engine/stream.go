package engine

import (
	"context"

	"gdbm/internal/query/plan"
)

// QueryStream runs stmt on q delivering the result into sink.
func QueryStream(ctx context.Context, q Querier, stmt string, sink plan.Sink) error {
	return q.QueryStream(ctx, stmt, sink)
}

// QueryContext runs stmt on q and materializes the result. It is the one
// buffered form of the engines' single execution path — q.QueryStream into
// a plan.Collector — so a buffered answer cannot differ from a streamed one.
func QueryContext(ctx context.Context, q Querier, stmt string) (*plan.Result, error) {
	var c plan.Collector
	if err := q.QueryStream(ctx, stmt, &c); err != nil {
		return nil, err
	}
	return &c.Res, nil
}
