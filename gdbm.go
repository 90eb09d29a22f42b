// Package gdbm is the public API of the graph-database-models workbench: a
// from-scratch Go reproduction of the systems compared in "A Comparison of
// Current Graph Database Models" (Angles, ICDE 2012 Workshops).
//
// The package exposes nine engines, one per system archetype of the survey
// (AllegroGraph, DEX, Filament, G-Store, HyperGraphDB, InfiniteGraph,
// Neo4j, Sones, VertexDB), built on shared storage, index, query-language,
// constraint and algorithm substrates, plus the harness that regenerates
// the paper's eight comparison tables from the living engines.
//
// Quick start:
//
//	db, err := gdbm.Open("neograph", gdbm.Options{})
//	...
//	api := db.(gdbm.GraphAPI)
//	ada, _ := api.AddNode("Person", gdbm.Props("name", "ada"))
//	bob, _ := api.AddNode("Person", gdbm.Props("name", "bob"))
//	api.AddEdge("knows", ada, bob, nil)
//	res, _ := gdbm.QueryContext(ctx, db.(gdbm.Querier), `MATCH (a)-[:knows]->(b) RETURN b.name AS n`)
package gdbm

import (
	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/format"
	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/pastql"
	"gdbm/internal/query/plan"
	"gdbm/internal/report"

	// Register every archetype engine.
	_ "gdbm/internal/engines/bitmapdb"
	_ "gdbm/internal/engines/filamentdb"
	_ "gdbm/internal/engines/gstore"
	_ "gdbm/internal/engines/hyperdb"
	_ "gdbm/internal/engines/infinigraph"
	_ "gdbm/internal/engines/neograph"
	_ "gdbm/internal/engines/sonesdb"
	_ "gdbm/internal/engines/triplestore"
	_ "gdbm/internal/engines/vertexkv"
)

// Core data model types.
type (
	// Value is a typed scalar (null, bool, int, float, string).
	Value = model.Value
	// Properties maps attribute names to values.
	Properties = model.Properties
	// Node is a vertex record.
	Node = model.Node
	// Edge is a binary edge record.
	Edge = model.Edge
	// HyperEdge relates an arbitrary set of nodes.
	HyperEdge = model.HyperEdge
	// NodeID identifies a node.
	NodeID = model.NodeID
	// EdgeID identifies an edge.
	EdgeID = model.EdgeID
	// Direction selects which incident edges a traversal follows.
	Direction = model.Direction
	// Graph is the structural read interface.
	Graph = model.Graph
	// MutableGraph extends Graph with updates.
	MutableGraph = model.MutableGraph
	// Schema is a catalog of node/relation types.
	Schema = model.Schema
	// NodeType declares a class of nodes.
	NodeType = model.NodeType
	// RelationType declares a class of edges.
	RelationType = model.RelationType
	// PropertyType declares a typed attribute.
	PropertyType = model.PropertyType
	// Kind enumerates value types.
	Kind = model.Kind
)

// Value kinds.
const (
	KindNull   = model.KindNull
	KindBool   = model.KindBool
	KindInt    = model.KindInt
	KindFloat  = model.KindFloat
	KindString = model.KindString
)

// Traversal directions.
const (
	Out  = model.Out
	In   = model.In
	Both = model.Both
)

// Value constructors.
var (
	// Null returns the null value.
	Null = model.Null
	// Bool wraps a bool.
	Bool = model.Bool
	// Int wraps an int64.
	Int = model.Int
	// Float wraps a float64.
	Float = model.Float
	// Str wraps a string.
	Str = model.Str
	// Of converts a native Go value.
	Of = model.Of
	// Props builds a property map from key/value pairs.
	Props = model.Props
)

// Engine surfaces.
type (
	// Engine is one archetype database instance.
	Engine = engine.Engine
	// Options configures Open.
	Options = engine.Options
	// Features is the archetype's table profile.
	Features = engine.Features
	// Essentials is the essential-query surface of Table VII.
	Essentials = engine.Essentials
	// Support is a table cell mark.
	Support = engine.Support
	// GraphAPI is the binary property-graph API surface.
	GraphAPI = engine.GraphAPI
	// HyperAPI is the hypergraph API surface.
	HyperAPI = engine.HyperAPI
	// Querier is the query-language surface.
	Querier = engine.Querier
	// SchemaHolder exposes a schema (DDL surface).
	SchemaHolder = engine.SchemaHolder
	// Reasoner exposes rule inference.
	Reasoner = engine.Reasoner
	// Persistent exposes Flush for disk-backed engines.
	Persistent = engine.Persistent
	// Loader is the bulk-ingest surface.
	Loader = engine.Loader
	// Result is a materialized query result.
	Result = plan.Result
)

// Support marks.
const (
	No      = engine.No
	Partial = engine.Partial
	Yes     = engine.Yes
)

// Open constructs the named engine. Names: "triplestore" (AllegroGraph),
// "bitmapdb" (DEX), "filamentdb" (Filament), "gstore" (G-Store), "hyperdb"
// (HyperGraphDB), "infinigraph" (InfiniteGraph), "neograph" (Neo4j),
// "sonesdb" (Sones), "vertexkv" (VertexDB).
func Open(name string, opts Options) (Engine, error) { return engine.Open(name, opts) }

// Engines lists the available engine names in the paper's row order.
func Engines() []string { return engine.Names() }

// Algorithms (the essential graph queries, usable on any Graph).
type (
	// Path is a node/edge sequence.
	Path = algo.Path
	// Pattern is a query graph for subgraph isomorphism.
	Pattern = plan.Pattern
	// PatternNode constrains one matched node.
	PatternNode = plan.PatternNode
	// PatternEdge constrains one matched edge.
	PatternEdge = plan.PatternEdge
	// Match is one pattern embedding.
	Match = plan.Match
	// PathExpr is a compiled regular path expression.
	PathExpr = plan.PathExpr
	// PathSemantics selects reachability or simple-path semantics.
	PathSemantics = plan.PathSemantics
	// AggKind selects an aggregate function.
	AggKind = algo.AggKind
	// DegreeStats summarizes a degree distribution.
	DegreeStats = algo.DegreeStats
)

// Aggregate kinds.
const (
	AggCount = algo.AggCount
	AggSum   = algo.AggSum
	AggAvg   = algo.AggAvg
	AggMin   = algo.AggMin
	AggMax   = algo.AggMax
)

// Path semantics.
const (
	Reachability = plan.Reachability
	SimplePaths  = plan.SimplePaths
)

// Algorithm entry points.
var (
	// Adjacent tests node adjacency.
	Adjacent = algo.Adjacent
	// Neighborhood returns the k-neighborhood.
	Neighborhood = algo.Neighborhood
	// ShortestPath returns a minimum-hop path.
	ShortestPath = algo.ShortestPath
	// WeightedShortestPath runs Dijkstra over an edge property.
	WeightedShortestPath = algo.WeightedShortestPath
	// FixedLengthPaths enumerates simple paths of exact length.
	FixedLengthPaths = algo.FixedLengthPaths
	// Reachable tests reachability.
	Reachable = algo.Reachable
	// CompilePathExpr compiles a regular path expression.
	CompilePathExpr = plan.CompilePathExpr
	// MatchPath evaluates a path expression from a start node.
	MatchPath = plan.MatchPath
	// NewPattern builds a pattern graph.
	NewPattern = plan.NewPattern
	// MatchPattern enumerates pattern embeddings.
	MatchPattern = plan.MatchPattern
	// Degrees computes degree statistics.
	Degrees = algo.Degrees
	// Diameter computes the graph diameter.
	Diameter = algo.Diameter
	// Distance computes the shortest-path length.
	Distance = algo.Distance
	// AggregateNodeProp folds a property over nodes.
	AggregateNodeProp = algo.AggregateNodeProp
	// BFS walks the graph breadth-first.
	BFS = algo.BFS
)

// Workload generation.
type (
	// GenSpec describes a synthetic graph.
	GenSpec = gen.Spec
	// GenKind selects the generator family.
	GenKind = gen.Kind
)

// Generator families.
const (
	ErdosRenyi     = gen.ER
	BarabasiAlbert = gen.BA
	RMAT           = gen.RMAT
)

// Generate builds a synthetic graph into any Loader.
func Generate(spec GenSpec, sink Loader) ([]NodeID, error) { return gen.Generate(spec, sink) }

// Table regeneration (the paper's evaluation).
type (
	// Table is one regenerated comparison matrix.
	Table = report.Table
	// Mismatch is a cell differing from the paper.
	Mismatch = report.Mismatch
	// PerfResult is one performance-sweep measurement.
	PerfResult = report.PerfResult
	// PastLanguage is one Table VIII language profile.
	PastLanguage = pastql.Language
)

// Tables regenerates all eight tables against the given engines (open one
// per archetype; see Open).
func Tables(engines []Engine) ([]*Table, error) { return report.AllTables(engines) }

// DiffWithPaper compares a regenerated table with the paper's matrix.
func DiffWithPaper(t *Table) []Mismatch { return report.Diff(t) }

// RunPerf runs the performance sweep the survey's related work cites.
var RunPerf = report.RunPerf

// RenderPerf prints a performance sweep.
var RenderPerf = report.RenderPerf

// Observability (see internal/obs and DESIGN.md "Observability contract").
type (
	// Registry hands out named metric collectors; wire one into an engine
	// via Options.Metrics. A nil *Registry is "metrics off".
	Registry = obs.Registry
	// Trace accumulates the spans and counters of one query execution; a
	// nil *Trace is "tracing off".
	Trace = obs.Trace
	// SlowLog appends slow-query records through the vfs seam; a nil
	// *SlowLog observes nothing.
	SlowLog = obs.SlowLog
)

var (
	// NewRegistry returns an empty metrics registry.
	NewRegistry = obs.NewRegistry
	// NewTrace starts a trace named after the work it times.
	NewTrace = obs.New
	// WithTrace returns a context carrying the trace.
	WithTrace = obs.WithTrace
	// TraceFromContext returns the context's trace (nil when tracing is off).
	TraceFromContext = obs.FromContext
	// OpenSlowLog opens (appending to) a slow-query log through the vfs seam.
	OpenSlowLog = obs.OpenSlowLog
	// QueryContext runs a statement on a Querier under ctx (deadline,
	// cancellation and any trace it carries) and materializes the result.
	QueryContext = engine.QueryContext
)

// PastLanguages returns the executable Table VIII profiles.
func PastLanguages() []*PastLanguage { return pastql.Languages() }

// Interchange formats (the survey notes no standard exists; these are the
// formats it names).
var (
	// WriteGraphML exports a graph as GraphML.
	WriteGraphML = format.WriteGraphML
	// ReadGraphML imports GraphML into any Loader.
	ReadGraphML = format.ReadGraphML
	// WriteCSV exports node and edge CSV sections.
	WriteCSV = format.WriteCSV
	// ReadCSV imports CSV sections into any Loader.
	ReadCSV = format.ReadCSV
	// WriteNTriples exports statements as N-Triples.
	WriteNTriples = format.WriteNTriples
	// ReadNTriples imports N-Triples statements.
	ReadNTriples = format.ReadNTriples
)
