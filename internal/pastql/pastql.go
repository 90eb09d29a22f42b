// Package pastql reproduces Table VIII of the survey: the support of *past*
// (pre-2002, theory-era) graph query languages for the essential graph
// queries, as classified by the prior evaluation the survey cites ([35],
// the Angles–Gutierrez study). Because those languages have no surviving
// implementations, each language is reconstructed as an executable profile
// over this repository's formal core: the planner's path operator (under
// simple-path or reachability semantics), its pattern matcher, and the
// summarization operators. A cell of Table VIII is marked supported only if
// the profile exposes a runnable operation for it, which the tests execute.
//
// The six languages profiled:
//
//	G        (Cruz, Mendelzon, Wood 1987) — graphical regular-path queries
//	G+       (Cruz, Mendelzon, Wood 1989) — G plus summarization operators
//	GraphLog (Consens, Mendelzon 1990)    — datalog over path regexes
//	Gram     (Amann, Scholl 1992)         — regular expressions over walks
//	GraphDB  (Güting 1994)                — object graphs with path classes
//	Lorel    (Abiteboul et al. 1997)      — OEM path expressions
package pastql

import (
	"context"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// Feature names the columns of Table VIII.
type Feature string

// The essential-query columns (Table VIII uses the Table VII classes plus
// the node-distance summarization function called out in the text).
const (
	FAdjacency    Feature = "node/edge adjacency"
	FNeighborhood Feature = "k-neighborhood"
	FFixedPaths   Feature = "fixed-length paths"
	FRegularPaths Feature = "regular simple paths"
	FShortestPath Feature = "shortest path"
	FDistance     Feature = "distance between nodes"
	FPattern      Feature = "pattern matching"
	FSummarize    Feature = "summarization"
)

// Columns returns the features in table order.
func Columns() []Feature {
	return []Feature{
		FAdjacency, FNeighborhood, FFixedPaths, FRegularPaths,
		FShortestPath, FDistance, FPattern, FSummarize,
	}
}

// Ops is the executable surface of one language profile. Nil fields are
// unsupported; Partial cells still carry a runnable (restricted) operation.
type Ops struct {
	Adjacency     func(g model.Graph, a, b model.NodeID) (bool, error)
	KNeighborhood func(g model.Graph, start model.NodeID, k int) ([]model.NodeID, error)
	FixedPaths    func(g model.Graph, from, to model.NodeID, length int) ([]algo.Path, error)
	RegularPaths  func(g model.Graph, start model.NodeID, expr string) ([]model.NodeID, error)
	ShortestPath  func(g model.Graph, from, to model.NodeID) (algo.Path, error)
	Distance      func(g model.Graph, a, b model.NodeID) (int, error)
	Pattern       func(g model.Graph, p *plan.Pattern) ([]plan.Match, error)
	Summarize     func(g model.Graph, kind algo.AggKind, label, prop string) (model.Value, error)
}

// Language is one Table VIII row.
type Language struct {
	Name  string
	Year  int
	Marks map[Feature]engine.Support
	Ops   Ops
}

// shared building blocks

func adjacency(g model.Graph, a, b model.NodeID) (bool, error) {
	return algo.Adjacent(g, a, b, model.Both)
}

func khood(g model.Graph, start model.NodeID, k int) ([]model.NodeID, error) {
	return algo.Neighborhood(g, start, k, model.Both)
}

func fixed(g model.Graph, from, to model.NodeID, length int) ([]algo.Path, error) {
	return algo.FixedLengthPaths(g, from, to, length, model.Out, 0)
}

// regularSimple evaluates under the simple-path semantics the theory papers
// define (NP-complete in general; fine at the scale of formal examples);
// regularReach under reachability semantics (Lorel-style path expressions
// do not require simple paths).
var regularSimple, regularReach = regular(plan.SimplePaths), regular(plan.Reachability)

func regular(sem plan.PathSemantics) func(model.Graph, model.NodeID, string) ([]model.NodeID, error) {
	return func(g model.Graph, start model.NodeID, expr string) ([]model.NodeID, error) {
		pe, err := plan.CompilePathExpr(expr)
		if err != nil {
			return nil, err
		}
		return plan.MatchPath(context.TODO(), g, pe, start, sem)
	}
}

func shortest(g model.Graph, from, to model.NodeID) (algo.Path, error) {
	return algo.ShortestPath(g, from, to, model.Out)
}

func distance(g model.Graph, a, b model.NodeID) (int, error) {
	return algo.Distance(g, a, b, model.Both)
}

// pattern is every profile's pattern matching: the shared planner's
// node-injective matches (plan.MatchPattern). GraphLog's reading, a pattern
// compiled to a datalog rule over edge triples, would need k-ary rule heads,
// which the reason engine lacks, so GraphLog runs this too.
func pattern(g model.Graph, p *plan.Pattern) ([]plan.Match, error) {
	return plan.MatchPattern(context.TODO(), g, p, 0)
}

func summarize(g model.Graph, kind algo.AggKind, label, prop string) (model.Value, error) {
	return algo.AggregateNodeProp(g, label, prop, kind)
}

// Languages returns the Table VIII rows with their profiles. Marks follow
// the prior study's classification ([35]); EXPERIMENTS.md records that the
// body of Table VIII is reconstructed (the source text of the paper is
// truncated there) with per-cell justification.
func Languages() []*Language {
	return []*Language{
		{
			Name: "G", Year: 1987,
			Marks: map[Feature]engine.Support{
				FAdjacency:    engine.Yes,
				FRegularPaths: engine.Yes,
				FFixedPaths:   engine.Yes,
			},
			Ops: Ops{
				Adjacency:    adjacency,
				RegularPaths: regularSimple,
				FixedPaths:   fixed,
			},
		},
		{
			Name: "G+", Year: 1989,
			Marks: map[Feature]engine.Support{
				FAdjacency:    engine.Yes,
				FNeighborhood: engine.Yes,
				FFixedPaths:   engine.Yes,
				FRegularPaths: engine.Yes,
				FShortestPath: engine.Yes,
				FDistance:     engine.Yes,
				FSummarize:    engine.Yes,
			},
			Ops: Ops{
				Adjacency:     adjacency,
				KNeighborhood: khood,
				FixedPaths:    fixed,
				RegularPaths:  regularSimple,
				ShortestPath:  shortest,
				Distance:      distance,
				Summarize:     summarize,
			},
		},
		{
			Name: "GraphLog", Year: 1990,
			Marks: map[Feature]engine.Support{
				FAdjacency:    engine.Yes,
				FNeighborhood: engine.Yes,
				FFixedPaths:   engine.Yes,
				FRegularPaths: engine.Yes,
				FPattern:      engine.Yes,
				FSummarize:    engine.Partial, // aggregation was a later extension
			},
			Ops: Ops{
				Adjacency:     adjacency,
				KNeighborhood: khood,
				FixedPaths:    fixed,
				RegularPaths:  regularSimple,
				Pattern:       pattern, // the shared matcher, not a datalog rule
				Summarize:     summarize,
			},
		},
		{
			Name: "Gram", Year: 1992,
			Marks: map[Feature]engine.Support{
				FAdjacency:    engine.Yes,
				FNeighborhood: engine.Yes,
				FFixedPaths:   engine.Yes,
				FRegularPaths: engine.Yes,
			},
			Ops: Ops{
				Adjacency:     adjacency,
				KNeighborhood: khood,
				FixedPaths:    fixed,
				RegularPaths:  regularSimple,
			},
		},
		{
			Name: "GraphDB", Year: 1994,
			Marks: map[Feature]engine.Support{
				FAdjacency:    engine.Yes,
				FNeighborhood: engine.Yes,
				FFixedPaths:   engine.Yes,
				FShortestPath: engine.Yes,
				FDistance:     engine.Yes,
				FSummarize:    engine.Partial,
			},
			Ops: Ops{
				Adjacency:     adjacency,
				KNeighborhood: khood,
				FixedPaths:    fixed,
				ShortestPath:  shortest,
				Distance:      distance,
				Summarize:     summarize,
			},
		},
		{
			Name: "Lorel", Year: 1997,
			Marks: map[Feature]engine.Support{
				FAdjacency:    engine.Yes,
				FNeighborhood: engine.Yes,
				FFixedPaths:   engine.Yes,
				FRegularPaths: engine.Partial, // general path exprs, reachability semantics
				FPattern:      engine.Partial, // select-where over path templates
				FSummarize:    engine.Yes,
			},
			Ops: Ops{
				Adjacency:     adjacency,
				KNeighborhood: khood,
				FixedPaths:    fixed,
				RegularPaths:  regularReach,
				Pattern:       pattern,
				Summarize:     summarize,
			},
		},
	}
}

// OpFor returns the runnable operation backing the feature, or nil.
func (l *Language) OpFor(f Feature) any {
	switch f {
	case FAdjacency:
		if l.Ops.Adjacency != nil {
			return l.Ops.Adjacency
		}
	case FNeighborhood:
		if l.Ops.KNeighborhood != nil {
			return l.Ops.KNeighborhood
		}
	case FFixedPaths:
		if l.Ops.FixedPaths != nil {
			return l.Ops.FixedPaths
		}
	case FRegularPaths:
		if l.Ops.RegularPaths != nil {
			return l.Ops.RegularPaths
		}
	case FShortestPath:
		if l.Ops.ShortestPath != nil {
			return l.Ops.ShortestPath
		}
	case FDistance:
		if l.Ops.Distance != nil {
			return l.Ops.Distance
		}
	case FPattern:
		if l.Ops.Pattern != nil {
			return l.Ops.Pattern
		}
	case FSummarize:
		if l.Ops.Summarize != nil {
			return l.Ops.Summarize
		}
	}
	return nil
}
