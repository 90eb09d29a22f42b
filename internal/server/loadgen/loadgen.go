// Package loadgen is the client half of the overload drill: an open-loop
// Poisson arrival process (offered load does not slow down when the server
// does — the classic coordinated-omission trap) driving the query API with
// per-request retry and jittered exponential backoff. It reports goodput,
// shed rate and latency quantiles; TestOverloadGoodput and the serve-smoke
// drill assert on them.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"gdbm/internal/server/wire"
)

// Config drives one load run.
type Config struct {
	// Target is the server base URL (http://host:port).
	Target string
	// Engine and Class route and classify the queries.
	Engine string
	Class  string
	// Stmt produces the i-th statement; nil uses a default gsql read.
	Stmt func(i int) string
	// Rate is the offered arrival rate in requests/second.
	Rate float64
	// Duration bounds the arrival window; requests in flight at the end
	// are awaited.
	Duration time.Duration
	// Seed makes the arrival process and jitter deterministic.
	Seed int64
	// MaxRetries bounds retry attempts after the first try.
	MaxRetries int
	// RetryBase is the backoff base; attempt n sleeps
	// max(server Retry-After, RetryBase·2ⁿ·jitter) with jitter in
	// [0.5, 1.5).
	RetryBase time.Duration
	// TimeoutMS is the per-request deadline sent to the server.
	TimeoutMS int
	// Proto selects the response encoding: "json" (default) or "binary"
	// for the length-prefixed frame protocol (Accept: application/x-gdbw).
	Proto string
}

// binary reports whether the run asks for framed binary responses.
func (c Config) binary() bool { return c.Proto == "binary" }

// Result summarizes one run.
type Result struct {
	Offered      int
	Completed    int
	GaveUp       int
	Failed       int
	ShedAttempts int
	Retries      int
	GoodputRPS   float64
	ShedRate     float64 // shed attempts / total attempts
	P50MS        float64
	P99MS        float64
	// BytesPerQuery is mean response-body bytes per completed request.
	BytesPerQuery float64
}

// poisson returns a generator of exponential interarrival gaps with mean
// 1/rate.
func poisson(rate float64, rng *rand.Rand) func() time.Duration {
	return func() time.Duration {
		return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
}

// attemptOutcome classifies one HTTP attempt.
type attemptOutcome struct {
	shed       bool
	retryAfter time.Duration
	ok         bool
	err        error
	bytes      int64 // response body size (ok only)
}

// Run executes one load run against cfg.Target and blocks until every
// request resolved (success, gave-up, or hard failure).
func Run(cfg Config) (*Result, error) {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Rate and Duration must be positive")
	}
	switch cfg.Proto {
	case "", "json", "binary":
	default:
		return nil, fmt.Errorf("loadgen: unknown proto %q", cfg.Proto)
	}
	stmt := cfg.Stmt
	if stmt == nil {
		stmt = func(int) string { return "SELECT ORDER" }
	}
	client := &http.Client{Timeout: 30 * time.Second}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gap := poisson(cfg.Rate, rng)

	res := &Result{}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		bodyBytes int64
		wg        sync.WaitGroup
	)
	record := func(d time.Duration, bytes int64, outcome string, sheds, retries int) {
		mu.Lock()
		defer mu.Unlock()
		res.ShedAttempts += sheds
		res.Retries += retries
		switch outcome {
		case "ok":
			res.Completed++
			latencies = append(latencies, d)
			bodyBytes += bytes
		case "gaveup":
			res.GaveUp++
		default:
			res.Failed++
		}
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	// Open loop: arrivals fire on schedule regardless of outstanding work.
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		i := res.Offered
		res.Offered++
		wg.Add(1)
		seed := rng.Int63()
		go func(i int, seed int64) {
			defer wg.Done()
			runOne(cfg, client, stmt(i), seed, record)
		}(i, seed)
		time.Sleep(gap())
	}
	wg.Wait()
	elapsed := time.Since(start)

	res.GoodputRPS = float64(res.Completed) / elapsed.Seconds()
	attempts := res.Offered + res.Retries
	if attempts > 0 {
		res.ShedRate = float64(res.ShedAttempts) / float64(attempts)
	}
	res.P50MS = quantileMS(latencies, 0.50)
	res.P99MS = quantileMS(latencies, 0.99)
	if res.Completed > 0 {
		res.BytesPerQuery = float64(bodyBytes) / float64(res.Completed)
	}
	return res, nil
}

// runOne drives one logical request to resolution: try, honor Retry-After
// with jittered exponential backoff on shed, give up after MaxRetries.
// Latency is arrival→success, so queueing in retries is charged to the
// request (no coordinated omission at the request level either).
func runOne(cfg Config, client *http.Client, stmt string, seed int64, record func(time.Duration, int64, string, int, int)) {
	rng := rand.New(rand.NewSource(seed))
	base := cfg.RetryBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	arrived := time.Now()
	sheds, retries := 0, 0
	for attempt := 0; ; attempt++ {
		out := tryQuery(cfg, client, stmt)
		if out.ok {
			record(time.Since(arrived), out.bytes, "ok", sheds, retries)
			return
		}
		if !out.shed {
			record(0, 0, "failed", sheds, retries)
			return
		}
		sheds++
		if attempt >= cfg.MaxRetries {
			record(0, 0, "gaveup", sheds, retries)
			return
		}
		retries++
		backoff := time.Duration(float64(base) * math.Pow(2, float64(attempt)) * (0.5 + rng.Float64()))
		if out.retryAfter > backoff {
			backoff = out.retryAfter
		}
		time.Sleep(backoff)
	}
}

// meteredReader counts body bytes.
type meteredReader struct {
	r io.Reader
	n int64
}

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.n += int64(n)
	return n, err
}

// tryQuery performs one HTTP attempt. Every path reads the response body to
// EOF before closing it: an undrained body makes net/http discard the
// connection, so a loadgen that skips draining measures connection setup,
// not the server (and burns its ephemeral ports doing so).
func tryQuery(cfg Config, client *http.Client, stmt string) attemptOutcome {
	body, _ := json.Marshal(map[string]any{
		"stmt":       stmt,
		"engine":     cfg.Engine,
		"class":      cfg.Class,
		"timeout_ms": cfg.TimeoutMS,
	})
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		cfg.Target+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return attemptOutcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.binary() {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		// Transport errors (conn refused during drain, accept-queue
		// pushback) are retryable sheds from the client's standpoint.
		return attemptOutcome{shed: true, retryAfter: 0, err: err}
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		br := &meteredReader{r: resp.Body}
		if cfg.binary() {
			// Collect verifies the terminal End/Error frame: a truncated
			// stream is an attempt failure, never a short success.
			if _, err := wire.Collect(br); err != nil {
				return attemptOutcome{err: err}
			}
		} else if _, err := io.Copy(io.Discard, br); err != nil {
			// The streamed JSON path signals mid-stream failure by
			// aborting the connection; surface that as a failed attempt.
			return attemptOutcome{err: err}
		}
		return attemptOutcome{ok: true, bytes: br.n}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		var e struct {
			RetryAfterMS int64 `json:"retry_after_ms"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return attemptOutcome{shed: true, retryAfter: time.Duration(e.RetryAfterMS) * time.Millisecond}
	default:
		return attemptOutcome{err: fmt.Errorf("status %d", resp.StatusCode)}
	}
}

// quantileMS returns the q-quantile of latencies in milliseconds (0 when
// empty), by sorting a copy.
func quantileMS(latencies []time.Duration, q float64) float64 {
	if len(latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return float64(s[idx]) / float64(time.Millisecond)
}
