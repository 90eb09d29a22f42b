package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/engine/capability"
	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/gql"
)

// Config sizes a Server.
type Config struct {
	// Engines names the engines served at startup (one shared instance
	// each). Empty serves every registered in-memory engine.
	Engines []string
	// Open constructs an engine instance; nil uses engine.Open with
	// default options. Tests inject stub engines here.
	Open func(name string) (engine.Engine, error)
	// Seed, when non-nil, loads a synthetic graph into every engine that
	// can ingest one.
	Seed *gen.Spec
	// Interactive and Batch size the two admission classes. Zero-valued
	// fields take defaults (DefaultInteractive / DefaultBatch).
	Interactive ClassConfig
	Batch       ClassConfig
	// SessionTTL and MaxSessions bound the per-client session table.
	SessionTTL  time.Duration
	MaxSessions int
	// Metrics receives server.* counters; nil disables metrics.
	Metrics *obs.Registry
	// ChunkRows bounds rows per streamed response chunk; zero uses
	// defaultChunkRows.
	ChunkRows int
	// Now is the clock; nil uses time.Now. Tests drive a fake clock.
	Now func() time.Time
}

// DefaultInteractive and DefaultBatch are the class defaults: interactive
// gets a high admission rate, small queue and a tight deadline; batch gets
// a lower rate, deeper queue and a loose deadline.
var (
	DefaultInteractive = ClassConfig{
		Rate: 200, Burst: 50, MaxInflight: 16, MaxQueue: 32,
		Weight: 4, Deadline: 2 * time.Second,
	}
	DefaultBatch = ClassConfig{
		Rate: 20, Burst: 10, MaxInflight: 4, MaxQueue: 64,
		Weight: 1, Deadline: 30 * time.Second,
	}
)

// Server is the overload-safe query service: admission control per SLO
// class in front of the engines, deadlines threaded into the kernels, and
// an explicit drain protocol. Construct with New, serve with Handler, and
// stop by BeginDrain followed by http.Server.Shutdown.
type Server struct {
	classes   map[Class]*admission
	tenants   map[string]*tenant
	order     []string
	sessions  *sessionStore
	metrics   *obs.Registry
	chunkRows int
	now       func() time.Time
	draining  atomic.Bool
	mux       *http.ServeMux

	// openFn and seedSpec replay engine construction for new sessions.
	openFn   func(string) (engine.Engine, error)
	seedSpec *gen.Spec
}

// New opens the configured engines and assembles the service.
func New(cfg Config) (*Server, error) {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	open := cfg.Open
	if open == nil {
		open = func(name string) (engine.Engine, error) {
			if capability.NeedsDir(name) {
				return nil, fmt.Errorf("engine %q needs a data directory; the server hosts in-memory engines only", name)
			}
			return engine.Open(name, engine.Options{Metrics: cfg.Metrics})
		}
	}
	names := cfg.Engines
	if len(names) == 0 {
		for _, n := range engine.Names() {
			if !capability.NeedsDir(n) {
				names = append(names, n)
			}
		}
	}
	if cfg.Interactive == (ClassConfig{}) {
		cfg.Interactive = DefaultInteractive
	}
	if cfg.Batch == (ClassConfig{}) {
		cfg.Batch = DefaultBatch
	}
	// One slot pool across both classes, sized by their summed MaxInflight
	// and divided by weight while contested.
	sc := newSched(cfg.Interactive.MaxInflight+cfg.Batch.MaxInflight,
		[]Class{Interactive, Batch},
		map[Class]classSched{
			Interactive: {Weight: cfg.Interactive.Weight, MaxQueue: cfg.Interactive.MaxQueue},
			Batch:       {Weight: cfg.Batch.Weight, MaxQueue: cfg.Batch.MaxQueue},
		})
	s := &Server{
		classes: map[Class]*admission{
			Interactive: newAdmission(Interactive, cfg.Interactive, sc, cfg.Metrics, now),
			Batch:       newAdmission(Batch, cfg.Batch, sc, cfg.Metrics, now),
		},
		tenants:   map[string]*tenant{},
		sessions:  newSessionStore(cfg.SessionTTL, cfg.MaxSessions, now),
		metrics:   cfg.Metrics,
		chunkRows: cfg.ChunkRows,
		now:       now,
	}
	if s.chunkRows <= 0 {
		s.chunkRows = defaultChunkRows
	}
	for _, name := range names {
		eng, err := open(name)
		if err != nil {
			return nil, fmt.Errorf("open engine %q: %w", name, err)
		}
		if cfg.Seed != nil {
			if err := seed(eng, *cfg.Seed); err != nil {
				return nil, fmt.Errorf("seed engine %q: %w", name, err)
			}
		}
		t := &tenant{name: name, eng: eng}
		s.tenants[name] = t
		s.order = append(s.order, name)
	}
	if len(s.tenants) == 0 {
		return nil, fmt.Errorf("server: no engines to serve")
	}
	s.openFn = open
	s.seedSpec = cfg.Seed
	s.buildMux()
	return s, nil
}

// seed loads the spec into eng when the engine can ingest it, flushing
// engines that buffer.
func seed(eng engine.Engine, spec gen.Spec) error {
	l, ok := eng.(engine.Loader)
	if !ok {
		return nil
	}
	if _, err := gen.Generate(spec, l); err != nil {
		return err
	}
	if p, ok := eng.(engine.Persistent); ok {
		return p.Flush()
	}
	return nil
}

// BeginDrain flips the server into drain mode: every new request answers
// 503 + Retry-After while in-flight requests run to completion. The caller
// then uses http.Server.Shutdown, which waits for in-flight handlers.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Engines lists the shared engines being served, in configuration order.
func (s *Server) Engines() []string { return append([]string(nil), s.order...) }

func (s *Server) buildMux() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
}

// queryRequest is the wire form of one query.
type queryRequest struct {
	// Stmt is the statement, in the engine's own query language.
	Stmt string `json:"stmt"`
	// Engine names a shared engine; Session routes to a private session
	// engine instead. Exactly one must be set.
	Engine  string `json:"engine,omitempty"`
	Session string `json:"session,omitempty"`
	// Class is "interactive" (default) or "batch".
	Class string `json:"class,omitempty"`
	// TimeoutMS lowers the class deadline for this request; it can never
	// raise it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// errorResponse is the wire form of every failure, including sheds.
type errorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// writeJSON writes a one-shot JSON response. An encode failure means the
// client saw a truncated body under an already-committed status; leaving
// the connection open would hand the next pipelined request a corrupt
// stream, so the failure is counted, logged and the connection aborted.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.abortResponse("response encode failed", err)
	}
}

// abortResponse handles a failure after response bytes are committed:
// count, log, and panic with http.ErrAbortHandler so net/http closes the
// connection without logging a stack trace. Truncation must look like an
// aborted connection to the client, never like a complete short response.
func (s *Server) abortResponse(reason string, err error) {
	s.metrics.Counter("server.write_errors").Inc()
	log.Printf("server: %s, aborting connection: %v", reason, err)
	panic(http.ErrAbortHandler)
}

// writeShed answers a shed or drain with the HTTP code, a Retry-After
// header (whole seconds, rounded up, at least 1) and a machine-readable
// retry_after_ms body, also rounded up and never 0 — a truncated-to-zero
// hint reads as "retry immediately" and turns backoff into a hammer.
func (s *Server) writeShed(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	ms := int64((retryAfter + time.Millisecond - 1) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.writeJSON(w, code, errorResponse{Error: msg, RetryAfterMS: ms})
}

// drainRetryAfter is the Retry-After hint while draining: long enough for a
// load balancer to move on, short enough that a restarted server is found.
const drainRetryAfter = 2 * time.Second

// maxRequestBody caps request bodies. Statements are short; without a cap a
// single huge JSON body buffers unboundedly in the decoder, undoing the
// overload contract's memory bound.
const maxRequestBody = 1 << 20

// decodeBody decodes r's JSON body into v under the size cap, answering 413
// on an oversized body and 400 on malformed JSON. It reports whether the
// handler should proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return false
		}
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeShed(w, http.StatusServiceUnavailable, "server is draining", drainRetryAfter)
		return
	}
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Stmt == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "stmt is required"})
		return
	}
	if (req.Engine == "") == (req.Session == "") {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "exactly one of engine or session is required"})
		return
	}
	class, ok := ParseClass(req.Class)
	if !ok {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown class %q", req.Class)})
		return
	}

	// Resolve the tenant before admission so 404s do not consume tokens.
	var t *tenant
	if req.Engine != "" {
		t = s.tenants[req.Engine]
		if t == nil {
			s.writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown engine %q", req.Engine)})
			return
		}
	} else {
		sess, err := s.sessions.Get(req.Session)
		if err != nil {
			s.writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		t = &sess.tenant
	}

	adm := s.classes[class]
	done, shed, err := adm.Admit(r.Context())
	if err != nil {
		// Client went away while queued; nothing useful to write.
		s.writeJSON(w, http.StatusRequestTimeout, errorResponse{Error: err.Error()})
		return
	}
	if shed != nil {
		s.writeShed(w, http.StatusTooManyRequests,
			"overloaded ("+shed.Reason+"), retry later", shed.RetryAfter)
		return
	}

	// Deadline: the class cap, lowered (never raised) by the request.
	deadline := adm.cfg.Deadline
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; deadline == 0 || d < deadline {
			deadline = d
		}
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	// Rows stream to the client as the plan produces them, framed per the
	// negotiated encoding. Failures before the first byte still answer
	// plain HTTP error statuses; failures after commit are in-band (binary
	// Error frame) or abort the connection (JSON has no in-band channel).
	st := s.newRespStream(w, r)
	start := time.Now()
	readonly, parsed := readonlyStmt(t.eng, req.Stmt)
	if parsed != nil {
		ctx = gql.WithParsed(ctx, req.Stmt, parsed)
	}
	execErr := t.exec(readonly, func(eng engine.Engine) error {
		q, ok := eng.(engine.Querier)
		if !ok {
			return fmt.Errorf("engine %q has no query language", t.name)
		}
		return engine.QueryStream(ctx, q, req.Stmt, st)
	})
	elapsed := time.Since(start)

	if execErr == nil {
		done("ok")
		if err := st.finish(elapsed); err != nil {
			s.abortResponse("response write failed", err)
		}
		return
	}
	status, outcome, msg := classifyExecErr(execErr)
	done(outcome)
	if !st.committed() {
		s.writeJSON(w, status, errorResponse{Error: msg})
		return
	}
	s.metrics.Counter("server.stream.aborts").Inc()
	if err := st.abort(status, msg); err != nil {
		s.abortResponse("mid-stream failure", execErr)
	}
}

// classifyExecErr maps a query execution error to its HTTP status, its
// admission outcome label and the client-facing message.
func classifyExecErr(err error) (status int, outcome, msg string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout", "query deadline exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "failed", "request cancelled"
	default:
		return http.StatusUnprocessableEntity, "failed", err.Error()
	}
}

type sessionCreateRequest struct {
	Engine string `json:"engine"`
}

type sessionCreateResponse struct {
	Session string `json:"session"`
	Engine  string `json:"engine"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeShed(w, http.StatusServiceUnavailable, "server is draining", drainRetryAfter)
		return
	}
	var req sessionCreateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if _, ok := s.tenants[req.Engine]; !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown engine %q", req.Engine)})
		return
	}
	eng, err := s.openFn(req.Engine)
	if err != nil {
		s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	if s.seedSpec != nil {
		if err := seed(eng, *s.seedSpec); err != nil {
			_ = eng.Close()
			s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
	}
	id, err := s.sessions.Create(req.Engine, eng)
	if err != nil {
		_ = eng.Close()
		if errors.Is(err, errSessionsFull) {
			s.writeShed(w, http.StatusTooManyRequests, err.Error(), time.Second)
			return
		}
		s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, sessionCreateResponse{Session: id, Engine: req.Engine})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.Delete(r.PathValue("id")) {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("session %q: %v", r.PathValue("id"), model.ErrNotFound)})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]any{
		"status":   status,
		"engines":  s.Engines(),
		"sessions": s.sessions.Len(),
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"counters": s.metrics.Counters(),
		"draining": s.draining.Load(),
	})
}
