package algo

import (
	"context"
	"fmt"
	"math"

	"gdbm/internal/model"
)

// Summarization queries (Section IV.4): aggregate functions over query
// results and functions computing properties of the graph and its elements —
// order, degree statistics, path length, node distance and diameter.

// DegreeStats summarizes the degree distribution in a direction.
type DegreeStats struct {
	Min, Max int
	Avg      float64
}

// Degrees computes min/max/average degree over all nodes.
func Degrees(g model.Graph, dir model.Direction) (DegreeStats, error) {
	stats := DegreeStats{Min: math.MaxInt}
	n := 0
	var iterErr error
	err := g.Nodes(func(node model.Node) bool {
		d, err := g.Degree(node.ID, dir)
		if err != nil {
			iterErr = err
			return false
		}
		if d < stats.Min {
			stats.Min = d
		}
		if d > stats.Max {
			stats.Max = d
		}
		stats.Avg += float64(d)
		n++
		return true
	})
	if err != nil {
		return DegreeStats{}, err
	}
	if iterErr != nil {
		return DegreeStats{}, iterErr
	}
	if n == 0 {
		return DegreeStats{}, nil
	}
	stats.Avg /= float64(n)
	return stats, nil
}

// Distance returns the length of a shortest path between two nodes, or -1
// and ErrNotFound if disconnected.
func Distance(g model.Graph, a, b model.NodeID, dir model.Direction) (int, error) {
	return DistanceCtx(context.Background(), g, a, b, dir)
}

// DistanceCtx is Distance with cooperative cancellation through the
// underlying shortest-path search.
func DistanceCtx(ctx context.Context, g model.Graph, a, b model.NodeID, dir model.Direction) (int, error) {
	p, err := ShortestPathCtx(ctx, g, a, b, dir)
	if err != nil {
		return -1, err
	}
	return p.Len(), nil
}

func eccentricityCtx(ctx context.Context, g model.Graph, start model.NodeID, dir model.Direction) (int, error) {
	max := 0
	err := BFSCtx(ctx, g, start, dir, func(_ model.NodeID, depth int) bool {
		if depth > max {
			max = depth
		}
		return true
	})
	return max, err
}

// Diameter returns the greatest distance between any two connected nodes
// (the survey's definition), computed by BFS from every node. O(V·(V+E)).
func Diameter(g model.Graph, dir model.Direction) (int, error) {
	return DiameterCtx(context.Background(), g, dir)
}

// DiameterCtx is Diameter with cooperative cancellation: each per-node BFS
// checks ctx through BFSCtx, so the O(V·(V+E)) sweep — the most expensive
// summarization query — stops promptly once the context is done.
func DiameterCtx(ctx context.Context, g model.Graph, dir model.Direction) (int, error) {
	max := 0
	var iterErr error
	err := g.Nodes(func(n model.Node) bool {
		ecc, err := eccentricityCtx(ctx, g, n.ID, dir)
		if err != nil {
			iterErr = err
			return false
		}
		if ecc > max {
			max = ecc
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if iterErr != nil {
		return 0, iterErr
	}
	return max, nil
}

// AggKind selects an aggregate function.
type AggKind uint8

const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", uint8(k))
	}
}

// Aggregator folds values into a single result; it implements the aggregate
// functions of summarization queries.
type Aggregator struct {
	kind    AggKind
	count   int // all values, including nulls (COUNT semantics)
	nonNull int // values participating in numeric aggregates
	sum     float64
	min     model.Value
	max     model.Value
}

// NewAggregator returns an aggregator of the given kind.
func NewAggregator(kind AggKind) *Aggregator { return &Aggregator{kind: kind} }

// Add folds one value. Null values count for AggCount but are ignored by
// the numeric aggregates (SQL semantics: AVG skips nulls).
func (a *Aggregator) Add(v model.Value) {
	a.count++
	if v.IsNull() {
		return
	}
	a.nonNull++
	if f, ok := v.AsFloat(); ok {
		a.sum += f
	}
	if a.min.IsNull() || v.Compare(a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || v.Compare(a.max) > 0 {
		a.max = v
	}
}

// Kind returns the aggregate the folder computes.
func (a *Aggregator) Kind() AggKind { return a.kind }

// Result returns the aggregate value. Avg over zero values is null.
func (a *Aggregator) Result() model.Value {
	switch a.kind {
	case AggCount:
		return model.Int(int64(a.count))
	case AggSum:
		return model.Float(a.sum)
	case AggAvg:
		if a.nonNull == 0 {
			return model.Null()
		}
		return model.Float(a.sum / float64(a.nonNull))
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	}
	return model.Null()
}

// AggregateNodeProp folds the named property over every node with the given
// label ("" = all nodes).
func AggregateNodeProp(g model.Graph, label, prop string, kind AggKind) (model.Value, error) {
	return AggregateNodePropCtx(context.Background(), g, label, prop, kind)
}

// AggregateNodePropCtx is AggregateNodeProp with cooperative cancellation:
// the scan checks ctx before it starts and every 1 024 nodes, and returns
// ctx.Err() once the context is done. Values fold in scan order, so a sum
// over non-integer properties is the same float on every host.
func AggregateNodePropCtx(ctx context.Context, g model.Graph, label, prop string, kind AggKind) (model.Value, error) {
	if err := ctx.Err(); err != nil {
		return model.Null(), err
	}
	agg := NewAggregator(kind)
	var ctxErr error
	scanned := 0
	err := g.Nodes(func(n model.Node) bool {
		if scanned++; scanned%1024 == 0 {
			if ctxErr = ctx.Err(); ctxErr != nil {
				return false
			}
		}
		if label != "" && n.Label != label {
			return true
		}
		if kind == AggCount {
			agg.Add(model.Int(1))
		} else {
			agg.Add(n.Props.Get(prop))
		}
		return true
	})
	if err != nil {
		return model.Null(), err
	}
	if ctxErr != nil {
		return model.Null(), ctxErr
	}
	return agg.Result(), nil
}
