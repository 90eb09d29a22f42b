package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// langEngine is a minimal Querier whose only job is to report a language;
// closes are counted so the store's lifecycle can be asserted.
type langEngine struct {
	lang   string
	closed atomic.Int64
}

func (e *langEngine) Name() string              { return "lang-" + e.lang }
func (e *langEngine) SurveyRow() string         { return "test" }
func (e *langEngine) Features() engine.Features { return engine.Features{} }
func (e *langEngine) Close() error              { e.closed.Add(1); return nil }
func (e *langEngine) LanguageName() string      { return e.lang }

func (e *langEngine) Essentials(context.Context) engine.Essentials { return engine.Essentials{} }

func (e *langEngine) QueryStream(context.Context, string, plan.Sink) error { return nil }

// bareEngine has no query language at all.
type bareEngine struct{}

func (bareEngine) Name() string              { return "bare" }
func (bareEngine) SurveyRow() string         { return "test" }
func (bareEngine) Features() engine.Features { return engine.Features{} }
func (bareEngine) Close() error              { return nil }

func (bareEngine) Essentials(context.Context) engine.Essentials { return engine.Essentials{} }

// TestReadonlyStmt pins the lock-classification contract. The gql cases are
// the regression for the shared-lock race: every MATCH-headed write must be
// classified as a write (exclusive lock), not by its first keyword.
func TestReadonlyStmt(t *testing.T) {
	cases := []struct {
		lang string
		stmt string
		want bool
	}{
		// gql reads
		{"gql", "MATCH (a:Person) RETURN a.name", true},
		{"gql", "MATCH (a)-[:knows]->(b) WHERE b.age > 30 RETURN b", true},
		// gql writes that begin with MATCH — the race the review caught
		{"gql", "MATCH (a) DELETE a", false},
		{"gql", "MATCH (a) DETACH DELETE a", false},
		{"gql", "MATCH (a:Person) SET a.age = 31", false},
		{"gql", "MATCH (a), (b) CREATE (a)-[:knows]->(b)", false},
		// gql writes with write heads
		{"gql", "CREATE (n:Person {name: 'ada'})", false},
		// unparseable gql falls back to the exclusive lock
		{"gql", "MATCH oops(", false},
		{"gql", "", false},
		// gsql / sparqlish dispatch on the first keyword
		{"gsql", "SELECT name FROM VERTEX Person", true},
		{"gsql", "INSERT VERTEX Person (name) VALUES ('ada')", false},
		{"sparqlish", "SELECT ?x WHERE { ?x <knows> ?y }", true},
		{"sparqlish", "ASK { ?x <knows> ?y }", true},
		{"sparqlish", "LOAD <data>", false},
		// unknown language: always exclusive
		{"mystery", "SELECT 1", false},
	}
	for _, c := range cases {
		got, _ := readonlyStmt(&langEngine{lang: c.lang}, c.stmt)
		if got != c.want {
			t.Errorf("readonlyStmt(%s, %q) = %v, want %v", c.lang, c.stmt, got, c.want)
		}
	}
	if got, _ := readonlyStmt(bareEngine{}, "SELECT 1"); got {
		t.Error("engine without a query language must take the exclusive lock")
	}
}

// TestSessionStoreClosesEngines asserts every removal path — explicit
// Delete, lazy expiry on Get, and the sweep on Create — closes the
// session's engine exactly once.
func TestSessionStoreClosesEngines(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	store := newSessionStore(time.Minute, 4, clock)

	// Delete closes.
	e1 := &langEngine{lang: "gsql"}
	id1, err := store.Create("e1", e1)
	if err != nil {
		t.Fatal(err)
	}
	if !store.Delete(id1) {
		t.Fatal("delete reported not-live")
	}
	if got := e1.closed.Load(); got != 1 {
		t.Errorf("engine closed %d times after Delete, want 1", got)
	}

	// Get on an expired session closes.
	e2 := &langEngine{lang: "gsql"}
	id2, err := store.Create("e2", e2)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := store.Get(id2); !errors.Is(err, model.ErrNotFound) {
		t.Fatalf("expired Get: %v, want ErrNotFound", err)
	}
	if got := e2.closed.Load(); got != 1 {
		t.Errorf("engine closed %d times after expiry Get, want 1", got)
	}

	// The sweep inside Create closes expired sessions it removes.
	e3 := &langEngine{lang: "gsql"}
	if _, err := store.Create("e3", e3); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	e4 := &langEngine{lang: "gsql"}
	if _, err := store.Create("e4", e4); err != nil {
		t.Fatal(err)
	}
	if got := e3.closed.Load(); got != 1 {
		t.Errorf("engine closed %d times after sweep, want 1", got)
	}
	if got := e4.closed.Load(); got != 0 {
		t.Errorf("live engine closed %d times, want 0", got)
	}

	// A second Delete of a gone id neither reports live nor double-closes.
	if store.Delete(id2) {
		t.Error("second delete reported live")
	}
	if got := e2.closed.Load(); got != 1 {
		t.Errorf("engine closed %d times after double delete, want 1", got)
	}
}
