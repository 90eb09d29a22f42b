// Package capability is the single source of truth for which capability
// interfaces (engine.Loader, engine.Querier, ...) each archetype engine is
// allowed to implement, derived cell by cell from the survey's Tables I-VII.
//
// The registry is enforced by this package's conformance tests, which open
// every registered engine and check that the capability interfaces the
// engine value satisfies stay inside the allowed set — including ones
// picked up by embedding — and that the allowed set is consistent with the
// engine's declared Features. Every table and harness asks these questions
// of the engine value, so that is where the tests ask them too. Together
// they pin the paper's feature matrices to the code: an engine cannot
// silently grow (or lose) a surface the survey says it should not have.
package capability

import "sort"

// Capability names one of the interface-level surfaces declared in
// package engine. The names must match the interface identifiers.
type Capability = string

// The capability vocabulary. Every entry names an exported interface of
// gdbm/internal/engine.
const (
	Loader        Capability = "Loader"
	GraphAPI      Capability = "GraphAPI"
	HyperAPI      Capability = "HyperAPI"
	Querier       Capability = "Querier"
	SchemaHolder  Capability = "SchemaHolder"
	Reasoner      Capability = "Reasoner"
	Transactional Capability = "Transactional"
	Persistent    Capability = "Persistent"
	Concurrent    Capability = "Concurrent"
)

// Profile is one engine package's allowance.
type Profile struct {
	// Row is the survey-table row the package reproduces ("Neo4j", ...).
	Row string
	// Allowed is the set of capability interfaces the archetype's paper
	// profile permits. Anything outside it fails the conformance tests.
	Allowed []Capability
	// DiskOnly marks archetypes that live solely in external memory
	// (Table I blanks their main-memory column): construction requires
	// Options.Dir. Harnesses consult this instead of hard-coding engine
	// names, so newly disk-only engines keep benching against the right
	// storage.
	DiskOnly bool
}

// Allows reports whether the profile permits the capability.
func (p Profile) Allows(c Capability) bool {
	for _, a := range p.Allowed {
		if a == c {
			return true
		}
	}
	return false
}

// Profiles maps engine package import path to its allowance. Rationale is
// recorded per entry against the survey's tables; the conformance test
// cross-checks the machine-checkable parts against Features().
var Profiles = map[string]Profile{
	// AllegroGraph: RDF store with SPARQL (Tables II+V query language),
	// RDFS++ reasoning (Table V), disk persistence (Table I external
	// memory) and a graph API. A multi-user server per Section II, hence
	// Concurrent.
	"gdbm/internal/engines/triplestore": {
		Row:     "AllegroGraph",
		Allowed: []Capability{Loader, GraphAPI, Querier, SchemaHolder, Reasoner, Persistent, Concurrent},
	},
	// DEX: bitmap-backed attributed multigraph, API-only operation
	// (Table II blanks DDL/DML/QL), node/relation types with types
	// checking (Tables IV+VI), external memory (Table I). Shared-session
	// graph management library, hence Concurrent.
	"gdbm/internal/engines/bitmapdb": {
		Row:     "DEX",
		Allowed: []Capability{Loader, GraphAPI, SchemaHolder, Persistent, Concurrent},
	},
	// Filament: schema-free pull-style API over a relational backend
	// (Table I backend storage); no language, no schema (Tables II, IV).
	"gdbm/internal/engines/filamentdb": {
		Row:     "Filament",
		Allowed: []Capability{Loader, GraphAPI, Persistent},
	},
	// G-Store: queries only through its language (Table V blanks the API
	// column), DDL in the language (Table II), paged external memory —
	// external memory *only*, so construction requires a data directory.
	"gdbm/internal/engines/gstore": {
		Row:      "G-Store",
		Allowed:  []Capability{Loader, Querier, SchemaHolder, Persistent},
		DiskOnly: true,
	},
	// HyperGraphDB: hypergraph model (Table III), typed atoms (Table IV
	// node/relation types), key-value backend storage (Table I). The
	// engine value is the hypergraph surface, hence HyperAPI; it has no
	// binary graph API.
	"gdbm/internal/engines/hyperdb": {
		Row:     "HyperGraphDB",
		Allowed: []Capability{Loader, HyperAPI, SchemaHolder, Persistent},
	},
	// InfiniteGraph: distributed attributed graph, API operation, typed
	// nodes/relations (Table IV), external memory. Built for concurrent
	// distributed traversal, hence Concurrent.
	"gdbm/internal/engines/infinigraph": {
		Row:     "InfiniteGraph",
		Allowed: []Capability{Loader, GraphAPI, SchemaHolder, Persistent, Concurrent},
	},
	// Neo4j: schema-free network model — Table IV blanks every schema
	// column and Table II blanks DDL, so SchemaHolder is forbidden; the
	// Cypher-like gql is the Table V "in development" partial query
	// language; transactions per the survey's Section II component list.
	// Concurrent: the survey's Section II component list gives Neo4j the
	// full database-engine stack, transactions included.
	"gdbm/internal/engines/neograph": {
		Row:     "Neo4j",
		Allowed: []Capability{Loader, GraphAPI, Querier, Transactional, Persistent, Concurrent},
	},
	// Sones: main-memory only (Table I blanks external memory, so
	// Persistent is forbidden), GraphQL-style language with DDL, object
	// model with hypergraph flavor (Table III).
	"gdbm/internal/engines/sonesdb": {
		Row:     "Sones",
		Allowed: []Capability{Loader, GraphAPI, HyperAPI, Querier, SchemaHolder},
	},
	// VertexDB: REST/JSON document-per-vertex store over a key-value
	// backend (Table I), schema-free, API only.
	"gdbm/internal/engines/vertexkv": {
		Row:     "VertexDB",
		Allowed: []Capability{Loader, GraphAPI, Persistent},
	},
}

// ForEngine returns the profile of the engine registered under name (the
// engine.Register name, which matches the last path element of its package).
func ForEngine(name string) (Profile, bool) {
	p, ok := Profiles["gdbm/internal/engines/"+name]
	return p, ok
}

// NeedsDir reports whether the named engine is external-memory only and so
// must be opened with Options.Dir set.
func NeedsDir(name string) bool {
	p, ok := ForEngine(name)
	return ok && p.DiskOnly
}

// AllowsDir reports whether the named engine can use a data directory at
// all, i.e. its profile permits the Persistent capability.
func AllowsDir(name string) bool {
	p, ok := ForEngine(name)
	return ok && p.Allows(Persistent)
}

// Rows returns the registered engine package paths sorted by survey row.
func Rows() []string {
	var paths []string
	for p := range Profiles {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		return Profiles[paths[i]].Row < Profiles[paths[j]].Row
	})
	return paths
}
