// Package fakedb is a capdecl fixture; the test registers it under the
// virtual path gdbm/internal/engines/fakedb with the profile
// {Loader, GraphAPI, Querier, Persistent} ("Fakebase" row).
package fakedb

import (
	"context"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// substrate mimics propcore: a shared core whose embedding silently leaks
// a schema surface into any engine that composes it. Defined inside an
// archetype package (unlike the real propcore, a Library package), it is
// convicted on its own.
type substrate struct{} // want `type substrate implements engine\.SchemaHolder, but the "Fakebase" profile forbids it`

// Schema makes substrate (and every embedder) an engine.SchemaHolder.
func (substrate) Schema() *model.Schema { return nil }

// DB gains SchemaHolder through embedding alone — the exact drift that
// once made the schema-free Neo4j archetype advertise a DDL surface.
type DB struct { // want `type DB implements engine\.SchemaHolder, but the "Fakebase" profile forbids it`
	substrate
}

// Good implements only allowed capabilities and must stay silent.
type Good struct{}

func (Good) LanguageName() string                  { return "fakeql" }
func (Good) QueryStream(ctx context.Context, stmt string, sink plan.Sink) error { return nil }
func (Good) Flush() error                          { return nil }

// probe asserts a capability the profile forbids: relying on reasoning
// internally is drift even without implementing it.
func probe(e engine.Engine) bool {
	_, ok := e.(engine.Reasoner) // want `type assertion to engine\.Reasoner, but the "Fakebase" profile forbids`
	return ok
}

// probeAllowed asserts an allowed capability; no finding.
func probeAllowed(e engine.Engine) bool {
	_, ok := e.(engine.Querier)
	return ok
}

// Experimental carries a justified escape hatch, so its forbidden
// Transactional surface is sanctioned (and the directive is "used").
//gdbvet:allow(capdecl): experimental tx surface staged behind a pending profile revision; see EXPERIMENTS.md
type Experimental struct{}

func (Experimental) Update(fn func() error) error { return fn() }
