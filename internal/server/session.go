package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/query/gql"
)

// tenant is one engine instance plus the read/write lock serializing access
// to it. Shared (per-engine-name) tenants live for the server's lifetime;
// session tenants belong to one client and expire.
type tenant struct {
	name string
	eng  engine.Engine
	mu   sync.RWMutex
}

// exec runs fn holding the tenant lock: shared for read-only statements so
// concurrent readers proceed in parallel, exclusive for writes.
func (t *tenant) exec(readonly bool, fn func(engine.Engine) error) error {
	if readonly {
		t.mu.RLock()
		defer t.mu.RUnlock()
		return fn(t.eng)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return fn(t.eng)
}

// readonlyStmt classifies stmt against the tenant engine's language so exec
// can take the shared lock for pure reads. Writes, unknown languages and
// unparseable statements all answer false — the exclusive lock is the safe
// default. gql needs the parser: its writes begin with MATCH
// (MATCH ... CREATE/SET/DELETE), so first-keyword matching would route a
// mutation under the shared lock. gsql and sparqlish dispatch statements on
// their first keyword, so a SELECT/ASK head there guarantees a pure read.
// A gql statement that parses is returned too, for the handler to hand to
// the engine through gql.WithParsed so it is parsed once per request.
func readonlyStmt(eng engine.Engine, stmt string) (bool, *gql.Statement) {
	q, ok := eng.(engine.Querier)
	if !ok {
		return false, nil
	}
	switch q.LanguageName() {
	case "gql":
		st, err := gql.Parse(stmt)
		if err != nil {
			return false, nil
		}
		return st.ReadOnly(), st
	case "gsql":
		return engine.ReadOnlyStmt(stmt, "SELECT"), nil
	case "sparqlish":
		return engine.ReadOnlyStmt(stmt, "SELECT", "ASK"), nil
	}
	return false, nil
}

// session is a private tenant with an expiry.
type session struct {
	tenant
	lastUsed time.Time
}

// sessionStore owns per-client sessions: bounded in count, expired lazily
// by TTL on every access, with no background goroutine (the server's
// goroutine count stays a function of in-flight requests alone).
type sessionStore struct {
	mu       sync.Mutex
	sessions map[string]*session
	ttl      time.Duration
	max      int
	now      func() time.Time
}

func newSessionStore(ttl time.Duration, max int, now func() time.Time) *sessionStore {
	if ttl <= 0 {
		ttl = 10 * time.Minute
	}
	if max <= 0 {
		max = 64
	}
	return &sessionStore{
		sessions: map[string]*session{},
		ttl:      ttl,
		max:      max,
		now:      now,
	}
}

// newID returns a 16-byte random hex token.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// Create opens a session around eng. It sweeps expired sessions first and
// rejects when the store is full even after the sweep. On rejection the
// caller still owns eng and must close it.
func (s *sessionStore) Create(name string, eng engine.Engine) (string, error) {
	id, err := newID()
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	swept := s.sweepLocked()
	var createErr error
	if len(s.sessions) >= s.max {
		createErr = fmt.Errorf("session table full (%d): %w", s.max, errSessionsFull)
	} else {
		sess := &session{lastUsed: s.now()}
		sess.name = name
		sess.eng = eng
		s.sessions[id] = sess
	}
	s.mu.Unlock()
	closeSessions(swept)
	if createErr != nil {
		return "", createErr
	}
	return id, nil
}

var errSessionsFull = fmt.Errorf("too many sessions")

// Get looks up a live session and refreshes its expiry.
func (s *sessionStore) Get(id string) (*session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	var expired *session
	if ok && s.now().Sub(sess.lastUsed) > s.ttl {
		delete(s.sessions, id)
		expired, ok = sess, false
	}
	if ok {
		sess.lastUsed = s.now()
	}
	s.mu.Unlock()
	if expired != nil {
		closeSessions([]*session{expired})
	}
	if !ok {
		return nil, fmt.Errorf("session %q: %w", id, model.ErrNotFound)
	}
	return sess, nil
}

// Delete removes a session and closes its engine; it reports whether the id
// was live.
func (s *sessionStore) Delete(id string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok {
		closeSessions([]*session{sess})
	}
	return ok
}

// Len reports the number of live sessions (expired ones may linger until
// the next sweep).
func (s *sessionStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// sweepLocked removes expired sessions and returns them; the caller must
// pass them to closeSessions after releasing the store lock.
func (s *sessionStore) sweepLocked() []*session {
	cutoff := s.now().Add(-s.ttl)
	var removed []*session
	for id, sess := range s.sessions {
		if sess.lastUsed.Before(cutoff) {
			delete(s.sessions, id)
			removed = append(removed, sess)
		}
	}
	return removed
}

// closeSessions closes the engines of sessions already removed from the
// store. It runs outside the store lock and takes each session's exclusive
// tenant lock first, so an in-flight query that resolved the session before
// removal finishes before its engine goes away.
func closeSessions(removed []*session) {
	for _, sess := range removed {
		sess.mu.Lock()
		_ = sess.eng.Close()
		sess.mu.Unlock()
	}
}
