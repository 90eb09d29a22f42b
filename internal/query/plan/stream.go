package plan

import (
	"gdbm/internal/model"
	"gdbm/internal/query"
)

// Sink receives a query result incrementally: Cols exactly once, then Row
// for every output row in execution order. Either call may return an error
// to stop production — the executor propagates it unchanged, so a sink can
// abort a stream (client disconnect, chunk-budget exhausted) without the
// operator tree finishing its scan. A vals slice is valid only during the
// call: Stream refills one slice for every row, so a sink that keeps a row
// past the call must copy it (Collector does), and a sink must not write
// to it. The server's sinks encode each row before they return.
type Sink interface {
	Cols(cols []string) error
	Row(vals []model.Value) error
}

// Stream runs an operator tree and emits the output rows into sink as they
// are produced, under the given column order. It is the incremental twin of
// Collect: both share the same row-projection code, so a streamed execution
// renders byte-identically to a collected one.
func Stream(op Op, src Source, cols []string, sink Sink) error {
	if err := sink.Cols(cols); err != nil {
		return err
	}
	sc := ScopeOf(op)
	slots := make([]int, len(cols))
	for i, c := range cols {
		slots[i], _ = sc.Slot(c)
	}
	out := make([]model.Value, len(cols)) // one row, refilled per output row
	return op.Run(src, func(row query.Row) error {
		for i, slot := range slots {
			if slot >= 0 { // a column the tree does not produce reads null
				out[i] = row[slot].Scalar()
			}
		}
		return sink.Row(out)
	})
}

// Replay feeds an already-materialized result into sink. It adapts cached
// or write-statement results (which exist whole before the first byte can
// be sent) to the streaming delivery path.
func Replay(res *Result, sink Sink) error {
	if err := sink.Cols(res.Cols); err != nil {
		return err
	}
	for _, row := range res.Rows {
		if err := sink.Row(row); err != nil {
			return err
		}
	}
	return nil
}

// Collector is the buffering Sink: it materializes a stream back into Res.
// Every buffered entry point (Collect, engine.QueryContext, a result-cache
// miss in engine.CachedStream) is a stream into a Collector, so the
// collected and streamed paths cannot drift. It copies every row it is
// handed, so each buffered row owns its own backing array.
type Collector struct{ Res Result }

// Cols implements Sink.
func (c *Collector) Cols(cols []string) error {
	c.Res.Cols = cols
	return nil
}

// Row implements Sink.
func (c *Collector) Row(vals []model.Value) error {
	row := make([]model.Value, len(vals))
	copy(row, vals)
	c.Res.Rows = append(c.Res.Rows, row)
	return nil
}
