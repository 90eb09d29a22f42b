package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/obs"
	"gdbm/internal/query/plan"
	"gdbm/internal/server"
	"gdbm/internal/server/loadgen"
)

// stubEngine is a controllable Querier: an optional fixed service time and
// an optional external block, both interruptible by ctx. It lets
// the tests pin service behavior precisely (real engines are exercised by
// the smoke test and bench/).
type stubEngine struct {
	delay time.Duration
	block chan struct{} // non-nil: QueryStream waits for close(block)
}

func (e *stubEngine) Name() string              { return "stub" }
func (e *stubEngine) SurveyRow() string         { return "stub" }
func (e *stubEngine) Features() engine.Features { return engine.Features{} }
func (e *stubEngine) Close() error              { return nil }
func (e *stubEngine) LanguageName() string      { return "gsql" }

func (e *stubEngine) Essentials(context.Context) engine.Essentials { return engine.Essentials{} }

func (e *stubEngine) QueryStream(ctx context.Context, stmt string, sink plan.Sink) error {
	if e.block != nil {
		select {
		case <-e.block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if e.delay > 0 {
		select {
		case <-time.After(e.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return sink.Cols([]string{"echo"})
}

// newTestServer builds a Server around the stub with tight, test-friendly
// class configs, returning the server, its metrics and an httptest host.
func newTestServer(t *testing.T, stub *stubEngine, inter, batch server.ClassConfig) (*server.Server, *obs.Registry, *httptest.Server) {
	t.Helper()
	m := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Engines:     []string{"stub"},
		Open:        func(string) (engine.Engine, error) { return stub, nil },
		Interactive: inter,
		Batch:       batch,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, m, ts
}

func postQuery(t *testing.T, url string, body map[string]any) (*http.Response, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

var relaxed = server.ClassConfig{Rate: 1000, Burst: 1000, MaxInflight: 16, MaxQueue: 16, Deadline: 5 * time.Second}

func TestQueryOK(t *testing.T) {
	_, _, ts := newTestServer(t, &stubEngine{}, relaxed, relaxed)
	resp, out := postQuery(t, ts.URL, map[string]any{"stmt": "SELECT ORDER", "engine": "stub"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (%v)", resp.StatusCode, out)
	}
	if cols, ok := out["cols"].([]any); !ok || len(cols) != 1 || cols[0] != "echo" {
		t.Fatalf("cols: %v", out["cols"])
	}
}

func TestQueryValidation(t *testing.T) {
	_, _, ts := newTestServer(t, &stubEngine{}, relaxed, relaxed)
	cases := []struct {
		body map[string]any
		code int
	}{
		{map[string]any{"engine": "stub"}, http.StatusBadRequest},                                // no stmt
		{map[string]any{"stmt": "x"}, http.StatusBadRequest},                                     // no target
		{map[string]any{"stmt": "x", "engine": "stub", "session": "s"}, http.StatusBadRequest},   // both targets
		{map[string]any{"stmt": "x", "engine": "nosuch"}, http.StatusNotFound},                   // unknown engine
		{map[string]any{"stmt": "x", "engine": "stub", "class": "turbo"}, http.StatusBadRequest}, // unknown class
		{map[string]any{"stmt": "x", "session": "deadbeef"}, http.StatusNotFound},                // unknown session
	}
	for i, c := range cases {
		resp, _ := postQuery(t, ts.URL, c.body)
		if resp.StatusCode != c.code {
			t.Errorf("case %d: status %d, want %d", i, resp.StatusCode, c.code)
		}
	}
}

// TestDeadline504: a query slower than its deadline answers 504 in deadline
// time, not service time — proof the context reaches the engine.
func TestDeadline504(t *testing.T) {
	_, m, ts := newTestServer(t, &stubEngine{delay: 10 * time.Second}, relaxed, relaxed)
	start := time.Now()
	resp, _ := postQuery(t, ts.URL, map[string]any{
		"stmt": "SELECT ORDER", "engine": "stub", "timeout_ms": 100,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("took %v; deadline did not interrupt the query", elapsed)
	}
	if got := m.Counters()["server.interactive.timeout"]; got != 1 {
		t.Errorf("timeout counter: %d, want 1", got)
	}
}

// TestShed429RetryAfter exhausts a one-token bucket and checks the shed
// contract: 429, a Retry-After header, and a machine-readable body.
func TestShed429RetryAfter(t *testing.T) {
	tight := server.ClassConfig{Rate: 0.5, Burst: 1, MaxInflight: 4, MaxQueue: 4, Deadline: time.Second}
	_, m, ts := newTestServer(t, &stubEngine{}, tight, relaxed)
	if resp, _ := postQuery(t, ts.URL, map[string]any{"stmt": "x", "engine": "stub"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	resp, out := postQuery(t, ts.URL, map[string]any{"stmt": "x", "engine": "stub"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header: %q", ra)
	}
	if ms, ok := out["retry_after_ms"].(float64); !ok || ms <= 0 {
		t.Fatalf("retry_after_ms body: %v", out["retry_after_ms"])
	}
	if got := m.Counters()["server.interactive.shed_rate"]; got != 1 {
		t.Errorf("shed_rate counter: %d, want 1", got)
	}
}

// TestDrainCompletesInflight is the drain contract: after BeginDrain new
// work is rejected 503 + Retry-After, every already-admitted query still
// completes successfully (zero failures), and http.Server.Shutdown returns.
func TestDrainCompletesInflight(t *testing.T) {
	stub := &stubEngine{block: make(chan struct{})}
	srv, m, ts := newTestServer(t, stub, relaxed, relaxed)

	const inflight = 4
	var wg sync.WaitGroup
	codes := make([]int, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postQuery(t, ts.URL, map[string]any{"stmt": "x", "engine": "stub"})
			codes[i] = resp.StatusCode
		}(i)
	}
	// Wait until all four are admitted and blocked inside the engine.
	waitFor(t, func() bool {
		return m.Counters()["server.interactive.admitted"] == inflight
	})

	srv.BeginDrain()
	resp, _ := postQuery(t, ts.URL, map[string]any{"stmt": "x", "engine": "stub"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 must carry Retry-After")
	}

	close(stub.block)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("in-flight query %d finished %d, want 200", i, code)
		}
	}
	counters := m.Counters()
	if got := counters["server.interactive.failed"]; got != 0 {
		t.Errorf("failed counter after drain: %d, want 0", got)
	}
	if got := counters["server.interactive.completed"]; got != inflight {
		t.Errorf("completed counter after drain: %d, want %d", got, inflight)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBodyTooLarge413: a body over the server's cap answers 413 instead of
// buffering without bound, on both decoding endpoints.
func TestBodyTooLarge413(t *testing.T) {
	_, _, ts := newTestServer(t, &stubEngine{}, relaxed, relaxed)
	big, _ := json.Marshal(map[string]any{
		"stmt":   string(bytes.Repeat([]byte{'x'}, 2<<20)),
		"engine": "stub",
	})
	for _, path := range []string{"/v1/query", "/v1/session"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with 2MiB body: status %d, want 413", path, resp.StatusCode)
		}
	}
	// A normal-sized request still works afterwards.
	if resp, _ := postQuery(t, ts.URL, map[string]any{"stmt": "x", "engine": "stub"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after oversized one: %d", resp.StatusCode)
	}
}

// closeCounter wraps stubEngine to count Close calls.
type closeCounter struct {
	stubEngine
	closed atomic.Int64
}

func (e *closeCounter) Close() error { e.closed.Add(1); return nil }

// TestSessionDeleteClosesEngine: deleting a session over HTTP closes the
// private engine that was opened for it.
func TestSessionDeleteClosesEngine(t *testing.T) {
	var opened []*closeCounter
	var mu sync.Mutex
	m := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Engines: []string{"stub"},
		Open: func(string) (engine.Engine, error) {
			e := &closeCounter{}
			mu.Lock()
			opened = append(opened, e)
			mu.Unlock()
			return e, nil
		},
		Interactive: relaxed,
		Batch:       relaxed,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	b, _ := json.Marshal(map[string]string{"engine": "stub"})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		Session string `json:"session"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if created.Session == "" {
		t.Fatal("no session id")
	}
	// opened[0] is the shared tenant, opened[1] the session engine.
	if len(opened) != 2 {
		t.Fatalf("opened %d engines, want 2", len(opened))
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+created.Session, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if got := opened[1].closed.Load(); got != 1 {
		t.Errorf("session engine closed %d times, want 1", got)
	}
	if got := opened[0].closed.Load(); got != 0 {
		t.Errorf("shared engine closed %d times, want 0", got)
	}
}

// TestSessionLifecycle: create, query through, delete, then 404.
func TestSessionLifecycle(t *testing.T) {
	_, _, ts := newTestServer(t, &stubEngine{}, relaxed, relaxed)
	b, _ := json.Marshal(map[string]string{"engine": "stub"})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.Session == "" {
		t.Fatal("no session id")
	}

	if resp, _ := postQuery(t, ts.URL, map[string]any{"stmt": "x", "session": created.Session}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query via session: %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+created.Session, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete session: %d", dresp.StatusCode)
	}
	if resp, _ := postQuery(t, ts.URL, map[string]any{"stmt": "x", "session": created.Session}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query after delete: %d, want 404", resp.StatusCode)
	}
}

// TestOverloadGoodput is the overload acceptance criterion run in-process:
// at 2× capacity the server sheds explicitly, goodput stays within 20% of
// the 1× goodput, admitted-latency p99 stays bounded by the class deadline,
// and the goroutine count returns to baseline (no leak per shed request).
func TestOverloadGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	const capacity = 100.0 // requests/second; well below the stub's service capacity at 1ms
	inter := server.ClassConfig{
		Rate: capacity, Burst: 10, MaxInflight: 8, MaxQueue: 8,
		Deadline: time.Second,
	}
	_, m, ts := newTestServer(t, &stubEngine{delay: time.Millisecond}, inter, relaxed)

	baseline := runtime.NumGoroutine()
	run := func(mult float64) *loadgen.Result {
		r, err := loadgen.Run(loadgen.Config{
			Target:     ts.URL,
			Engine:     "stub",
			Class:      "interactive",
			Rate:       capacity * mult,
			Duration:   1500 * time.Millisecond,
			Seed:       42,
			MaxRetries: 3,
			RetryBase:  20 * time.Millisecond,
			TimeoutMS:  900,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	at1 := run(1)
	at2 := run(2)

	if at2.ShedAttempts == 0 {
		t.Error("2× load produced no sheds; admission control is not engaging")
	}
	if at1.GoodputRPS > 0 && at2.GoodputRPS < 0.8*at1.GoodputRPS {
		t.Errorf("goodput collapsed under overload: 1×=%.1f rps, 2×=%.1f rps",
			at1.GoodputRPS, at2.GoodputRPS)
	}
	// p99 of completed requests (including retry backoff) must stay within
	// a few deadlines — overload latency is bounded, not unbounded queueing.
	if at2.P99MS > 5000 {
		t.Errorf("2× p99 %v ms; latencies unbounded under overload", at2.P99MS)
	}
	// Shed requests must not leak goroutines.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+10 })

	counters := m.Counters()
	sheds := counters["server.interactive.shed_rate"] + counters["server.interactive.shed_queue"]
	if sheds == 0 {
		t.Error("server-side shed counters are zero under 2× load")
	}
	t.Logf("1×: goodput=%.1f rps p99=%.1fms shed=%.3f; 2×: goodput=%.1f rps p99=%.1fms shed=%.3f",
		at1.GoodputRPS, at1.P99MS, at1.ShedRate, at2.GoodputRPS, at2.P99MS, at2.ShedRate)
}

// TestStatszAndHealthz exercise the observability endpoints.
func TestStatszAndHealthz(t *testing.T) {
	srv, _, ts := newTestServer(t, &stubEngine{}, relaxed, relaxed)
	postQuery(t, ts.URL, map[string]any{"stmt": "x", "engine": "stub"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Counters map[string]uint64 `json:"counters"`
		Draining bool              `json:"draining"`
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Counters["server.interactive.completed"] != 1 {
		t.Fatalf("statsz counters: %v", stats.Counters)
	}

	srv.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if fmt.Sprint(srv.Engines()) != "[stub]" {
		t.Fatalf("engines: %v", srv.Engines())
	}
}

// TestRequestBodies pins how both decoding endpoints answer each shape of
// request body: the status, and the error message a client sees. Only the
// first JSON value is read, so bytes after it are ignored, even past the
// size cap; a body that is still inside its first value at the cap
// answers 413.
func TestRequestBodies(t *testing.T) {
	_, _, ts := newTestServer(t, &stubEngine{}, relaxed, relaxed)
	huge := strings.Repeat("x", 2<<20)
	for _, ep := range []struct {
		path, valid, wrongType, typeMsg string
	}{
		{"/v1/query", `{"stmt":"x","engine":"stub"}`, `{"stmt":5,"engine":"stub"}`,
			"json: cannot unmarshal number into Go struct field queryRequest.stmt of type string"},
		{"/v1/session", `{"engine":"stub"}`, `{"engine":5}`,
			"json: cannot unmarshal number into Go struct field sessionCreateRequest.engine of type string"},
	} {
		cases := []struct {
			name string
			body string
			code int
			msg  string // the error field; "" when the request is accepted
		}{
			{"valid", ep.valid, http.StatusOK, ""},
			{"valid-newline", ep.valid + "\n", http.StatusOK, ""},
			{"trailing-bytes", ep.valid + " trailing", http.StatusOK, ""},
			{"trailing-value", ep.valid + `{"stmt":"y"}`, http.StatusOK, ""},
			{"trailing-past-cap", ep.valid + strings.Repeat(" ", 2<<20), http.StatusOK, ""},
			{"empty", "", http.StatusBadRequest, "bad request body: EOF"},
			{"whitespace", " \n\t", http.StatusBadRequest, "bad request body: EOF"},
			{"malformed-truncated", `{"stmt":`, http.StatusBadRequest, "bad request body: unexpected EOF"},
			{"malformed-token", `not json`, http.StatusBadRequest, "bad request body: invalid character 'o' in literal null (expecting 'u')"},
			{"malformed-wrong-type", ep.wrongType, http.StatusBadRequest, "bad request body: " + ep.typeMsg},
			{"unknown-field", ep.valid[:len(ep.valid)-1] + `,"extra":1}`, http.StatusOK, ""},
			{"oversized", `{"engine":"stub","stmt":"` + huge + `"}`, http.StatusRequestEntityTooLarge, "request body exceeds 1048576 bytes"},
		}
		for _, c := range cases {
			t.Run(ep.path+"/"+c.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(c.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var out struct {
					Error string `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != c.code || out.Error != c.msg {
					t.Errorf("status %d, error %q; want %d, %q", resp.StatusCode, out.Error, c.code, c.msg)
				}
			})
		}
	}
}
