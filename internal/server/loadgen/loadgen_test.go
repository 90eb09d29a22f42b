package loadgen

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestInterarrivalMean checks the Poisson process produces gaps whose mean
// matches 1/rate — the open-loop property everything downstream (offered
// load, shed rate) depends on.
func TestInterarrivalMean(t *testing.T) {
	const rate = 200.0
	gap := poisson(rate, rand.New(rand.NewSource(7)))
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		g := gap()
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean := sum.Seconds() / n
	want := 1 / rate
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean gap %.6fs, want %.6fs ±5%%", mean, want)
	}
}

func TestQuantileMS(t *testing.T) {
	if q := quantileMS(nil, 0.99); q != 0 {
		t.Fatalf("empty quantile: %g", q)
	}
	// 1..100ms: p50 and p99 must land on the order statistics regardless
	// of input order.
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(100-i) * time.Millisecond
	}
	if q := quantileMS(lat, 0.50); math.Abs(q-50) > 1.5 {
		t.Errorf("p50 = %g, want ~50", q)
	}
	if q := quantileMS(lat, 0.99); math.Abs(q-99) > 1.5 {
		t.Errorf("p99 = %g, want ~99", q)
	}
	// The input slice must not be reordered (callers keep using it).
	if lat[0] != 100*time.Millisecond {
		t.Error("quantileMS sorted the caller's slice")
	}
}

// TestRunAgainstStub drives the full closed loop against a stub server
// that sheds every third request once and hard-fails a marked statement,
// checking the client-side accounting: sheds retried to success, hard
// failures not retried, offered = completed + gaveup + failed.
func TestRunAgainstStub(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var q struct {
			Stmt string `json:"stmt"`
		}
		_ = json.NewDecoder(r.Body).Decode(&q)
		if q.Stmt == "FAIL" {
			http.Error(w, `{"error":"bad"}`, http.StatusUnprocessableEntity)
			return
		}
		mu.Lock()
		n := hits
		hits++
		mu.Unlock()
		if n%3 == 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"retry_after_ms":5}`))
			return
		}
		_, _ = w.Write([]byte(`{"cols":["n"]}`))
	}))
	defer ts.Close()

	res, err := Run(Config{
		Target:     ts.URL,
		Engine:     "stub",
		Stmt:       func(i int) string { return "OK" },
		Rate:       200,
		Duration:   300 * time.Millisecond,
		Seed:       3,
		MaxRetries: 4,
		RetryBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.Completed == 0 {
		t.Fatalf("no traffic flowed: %+v", res)
	}
	if res.ShedAttempts == 0 || res.Retries == 0 {
		t.Fatalf("the stub sheds every third hit; client saw none: %+v", res)
	}
	if res.Failed != 0 {
		t.Fatalf("no statement should hard-fail here: %+v", res)
	}
	if got := res.Completed + res.GaveUp + res.Failed; got != res.Offered {
		t.Fatalf("accounting: completed+gaveup+failed = %d, offered = %d", got, res.Offered)
	}
	if res.GoodputRPS <= 0 || res.P50MS <= 0 {
		t.Fatalf("goodput/latency not measured: %+v", res)
	}

	// A non-shed error resolves as failed, with no retries burned.
	res, err = Run(Config{
		Target:   ts.URL,
		Stmt:     func(int) string { return "FAIL" },
		Rate:     100,
		Duration: 100 * time.Millisecond,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Offered || res.Completed != 0 {
		t.Fatalf("hard failures must not complete or retry: %+v", res)
	}
}

// TestRunValidation rejects nonsensical configs.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Rate: 0, Duration: time.Second}); err == nil {
		t.Error("zero rate must be rejected")
	}
	if _, err := Run(Config{Rate: 1, Duration: 0}); err == nil {
		t.Error("zero duration must be rejected")
	}
	if _, err := Run(Config{Rate: 1, Duration: time.Second, Proto: "bogus"}); err == nil {
		t.Error("unknown proto must be rejected")
	}
}

// TestBodyDrainReusesConnections is the regression test for the unread-
// response-body leak: tryQuery must drain every response body (success,
// shed, and error alike) so the transport can reuse connections. A flaky
// server cycles all three response shapes; driven sequentially over one
// client, the whole run must fit on a single TCP connection. Before the
// fix, every undrained body killed its connection and this test counts one
// dial per request.
func TestBodyDrainReusesConnections(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		switch r.Header.Get("X-Case") {
		case "shed":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"overloaded","retry_after_ms":5}` + "\n"))
		case "fail":
			w.WriteHeader(http.StatusUnprocessableEntity)
			_, _ = w.Write([]byte(`{"error":"bad statement"}` + "\n"))
		default:
			// A body big enough that an undrained read buffer cannot hide
			// the leak behind the transport's peek-ahead.
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(`{"cols":["n"],"rows":[`))
			for i := 0; i < 4096; i++ {
				if i > 0 {
					_, _ = w.Write([]byte{','})
				}
				_, _ = w.Write([]byte(`[123456789]`))
			}
			_, _ = w.Write([]byte(`],"elapsed_ms":1}` + "\n"))
		}
	}))
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	cases := []string{"ok", "shed", "fail"}
	const rounds = 30
	for i := 0; i < rounds; i++ {
		kase := cases[i%len(cases)]
		cfg := Config{Target: ts.URL, Engine: "stub"}
		// Route the case marker through a header the stub reads; tryQuery
		// itself stays untouched.
		withHeader := *client
		withHeader.Transport = roundTripperFunc(func(r *http.Request) (*http.Response, error) {
			r.Header.Set("X-Case", kase)
			return http.DefaultTransport.RoundTrip(r)
		})
		out := tryQuery(cfg, &withHeader, "SELECT ORDER")
		switch kase {
		case "ok":
			if !out.ok {
				t.Fatalf("round %d: ok case failed: %+v", i, out)
			}
			if out.bytes == 0 {
				t.Fatalf("round %d: body bytes not measured", i)
			}
		case "shed":
			if !out.shed || out.retryAfter != 5*time.Millisecond {
				t.Fatalf("round %d: shed case: %+v", i, out)
			}
		case "fail":
			if out.ok || out.shed || out.err == nil {
				t.Fatalf("round %d: fail case: %+v", i, out)
			}
		}
	}
	// Sequential requests over one transport: a handful of connections at
	// most (keep-alive races can open a second), never one per request.
	if got := conns.Load(); got > 3 {
		t.Fatalf("server saw %d connections for %d sequential requests; bodies are not being drained", got, rounds)
	}
}

type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
