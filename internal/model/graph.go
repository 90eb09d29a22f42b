package model

import (
	"errors"
	"fmt"
)

// NodeID identifies a node within a graph. IDs are allocated densely from 1;
// 0 is never a valid ID.
type NodeID uint64

// EdgeID identifies an edge (or hyperedge) within a graph. 0 is never valid.
type EdgeID uint64

// InvalidNode and InvalidEdge are the zero identifiers.
const (
	InvalidNode NodeID = 0
	InvalidEdge EdgeID = 0
)

// Node is the record form of a vertex: an identifier, an optional label
// (type name), and an optional attribute map. Engines whose archetype lacks
// attribution reject non-empty Props at their own surface; the record type is
// shared.
type Node struct {
	ID    NodeID
	Label string
	Props Properties
}

// Edge is the record form of a binary edge. Directed engines interpret
// From→To; undirected engines treat the pair symmetrically.
type Edge struct {
	ID    EdgeID
	Label string
	From  NodeID
	To    NodeID
	Props Properties
}

// HyperEdge relates an arbitrary, ordered set of nodes (the survey's
// hypergraph structure). Members may contain repeats.
type HyperEdge struct {
	ID      EdgeID
	Label   string
	Members []NodeID
	Props   Properties
}

// Sentinel errors shared across engines and substrates.
var (
	ErrNotFound      = errors.New("not found")
	ErrAlreadyExists = errors.New("already exists")
	ErrUnsupported   = errors.New("operation not supported by this engine")
	ErrClosed        = errors.New("database is closed")
	ErrReadOnly      = errors.New("transaction is read-only")
	ErrConstraint    = errors.New("integrity constraint violation")
)

// NodeNotFound wraps ErrNotFound with the offending ID.
func NodeNotFound(id NodeID) error {
	return fmt.Errorf("node %d: %w", id, ErrNotFound)
}

// EdgeNotFound wraps ErrNotFound with the offending ID.
func EdgeNotFound(id EdgeID) error {
	return fmt.Errorf("edge %d: %w", id, ErrNotFound)
}

// Direction selects which incident edges of a node a traversal follows.
type Direction uint8

const (
	Out  Direction = iota // edges whose From is the node
	In                    // edges whose To is the node
	Both                  // union of Out and In
)

// String returns "out", "in" or "both".
func (d Direction) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	default:
		return "both"
	}
}

// Reverse flips Out and In; Both is its own reverse.
func (d Direction) Reverse() Direction {
	switch d {
	case Out:
		return In
	case In:
		return Out
	default:
		return Both
	}
}

// Graph is the structural read interface every binary-edge engine exposes to
// the algorithm layer. Implementations must be safe for concurrent readers.
type Graph interface {
	// Order returns the number of nodes.
	Order() int
	// Size returns the number of edges.
	Size() int
	// Node returns the node record for id.
	Node(id NodeID) (Node, error)
	// Edge returns the edge record for id.
	Edge(id EdgeID) (Edge, error)
	// Nodes calls fn for every node until fn returns false or an error.
	Nodes(fn func(Node) bool) error
	// Edges calls fn for every edge until fn returns false or an error.
	Edges(fn func(Edge) bool) error
	// Neighbors calls fn for each edge incident to id in the given
	// direction, together with the node at the far end.
	Neighbors(id NodeID, dir Direction, fn func(Edge, Node) bool) error
	// Degree returns the number of incident edges in the given direction.
	Degree(id NodeID, dir Direction) (int, error)
}

// ReleaseFunc returns resources pinned by an acquired snapshot. It must be
// called exactly once when the caller is done with the view; calling it
// more than once is a no-op for the implementations in this repository.
// The stores' frozen views hold nothing but memory, so their release does
// nothing.
type ReleaseFunc func()

// SortedAdjacency is an optional Graph capability: the IDs of the
// neighbors of a node in a direction, filtered by edge label ("" = any),
// in ascending NodeID order with one entry per matching edge (parallel
// edges repeat their endpoint; a self-loop under Both appears once per
// direction, mirroring Neighbors enumeration). No store implements it:
// plan.SortedNeighborIDs derives the lists the worst-case-optimal join
// intersects from IDAdjacency's pairs (or Neighbors) and sorts them. It is
// kept only as the hook the benchmark's timing decorator answers through,
// and goes away when that decorator forwards IDAdjacency instead.
type SortedAdjacency interface {
	SortedNeighborIDs(id NodeID, dir Direction, label string) ([]NodeID, error)
}

// NeighborID is one element of a node's adjacency without its records: the
// incident edge and the node at its far end.
type NeighborID struct {
	Edge EdgeID
	Node NodeID
}

// IDAdjacency is an optional Graph capability: the (edge, far node) id
// pairs of a node's incident edges in a direction, through edges carrying
// label ("" = any), appended to buf in exactly the order Neighbors
// enumerates them — out before in, list order within each —
// with no record decoded or copied. handled false means the graph cannot
// answer from adjacency alone (a wrapper over a store without the
// capability); the caller then uses Neighbors, as with Source.IndexedNodes.
type IDAdjacency interface {
	AppendNeighborIDs(buf []NeighborID, id NodeID, dir Direction, label string) (out []NeighborID, handled bool, err error)
}

// Pinner is implemented by the mutable stores (memgraph, kvgraph) that
// freeze copy-on-write views: AcquireView pins a frozen state of the store
// under the contract written on engine.Concurrent. The method is
// deliberately not named AcquireSnapshot: engines embed the stores, and a
// promoted method of that name would hand the engine-level Concurrent
// capability to archetypes whose paper profile lacks it. Engines whose profile allows Concurrent
// delegate AcquireSnapshot to AcquireView explicitly.
type Pinner interface {
	AcquireView() (Graph, ReleaseFunc, error)
}

// MutableGraph extends Graph with update operations.
type MutableGraph interface {
	Graph
	AddNode(label string, props Properties) (NodeID, error)
	AddEdge(label string, from, to NodeID, props Properties) (EdgeID, error)
	RemoveNode(id NodeID) error
	RemoveEdge(id EdgeID) error
	SetNodeProp(id NodeID, key string, v Value) error
	SetEdgeProp(id EdgeID, key string, v Value) error
}

// Hypergraph is the structural interface for hyperedge engines.
type Hypergraph interface {
	Order() int
	Size() int
	Node(id NodeID) (Node, error)
	HyperEdge(id EdgeID) (HyperEdge, error)
	Nodes(fn func(Node) bool) error
	HyperEdges(fn func(HyperEdge) bool) error
	// Incident calls fn for every hyperedge containing id.
	Incident(id NodeID, fn func(HyperEdge) bool) error
}

// MutableHypergraph extends Hypergraph with update operations.
type MutableHypergraph interface {
	Hypergraph
	AddNode(label string, props Properties) (NodeID, error)
	AddHyperEdge(label string, members []NodeID, props Properties) (EdgeID, error)
	RemoveHyperEdge(id EdgeID) error
}

// NestedGraph models graphs whose nodes may themselves contain graphs
// (hypernodes). The survey notes no current system supports nesting; this
// repository implements it as the paper's "future work" structure so the
// comparison harness can exercise the full taxonomy.
type NestedGraph interface {
	MutableGraph
	// Nest attaches a child graph to node id, making it a hypernode.
	Nest(id NodeID, child MutableGraph) error
	// Unnest detaches and returns the child graph of a hypernode.
	Unnest(id NodeID) (MutableGraph, error)
	// Child returns the nested graph of id, or ErrNotFound if id is flat.
	Child(id NodeID) (Graph, error)
	// Depth returns the maximum nesting depth below id (0 for flat nodes).
	Depth(id NodeID) (int, error)
}
