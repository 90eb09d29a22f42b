package engine

import (
	"context"
	"strings"

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

// ReadOnlyStmt reports whether the statement's first keyword is one of the
// given read verbs (case-insensitive), e.g. "SELECT" for gsql or "MATCH"
// for gql.
func ReadOnlyStmt(stmt string, readVerbs ...string) bool {
	fields := strings.Fields(stmt)
	if len(fields) == 0 {
		return false
	}
	for _, v := range readVerbs {
		if strings.EqualFold(fields[0], v) {
			return true
		}
	}
	return false
}
