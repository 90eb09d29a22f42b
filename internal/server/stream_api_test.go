package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/plan"
	"gdbm/internal/server"
	"gdbm/internal/server/wire"
)

// streamStub is a stubEngine that emits rows one at a time, honoring ctx
// between rows, so tests can drive mid-stream behavior (cancellation,
// failure).
type streamStub struct {
	stubEngine
	rows     int           // emit this many rows; < 0 streams forever
	failAt   int           // if > 0, fail after emitting failAt rows
	returned chan error    // when non-nil, receives QueryStream's return
	started  chan struct{} // when non-nil, closed after the first row
}

func (e *streamStub) QueryStream(ctx context.Context, stmt string, sink plan.Sink) (err error) {
	if e.returned != nil {
		defer func() { e.returned <- err }()
	}
	if err = sink.Cols([]string{"i"}); err != nil {
		return err
	}
	for i := 0; e.rows < 0 || i < e.rows; i++ {
		if e.failAt > 0 && i == e.failAt {
			return errors.New("exec failed mid-stream")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err = sink.Row([]model.Value{model.Int(int64(i))}); err != nil {
			return err
		}
		if e.started != nil && i == 0 {
			close(e.started)
		}
	}
	return nil
}

func newStreamServer(t *testing.T, stub engine.Engine, chunkRows int) (*obs.Registry, *httptest.Server) {
	t.Helper()
	m := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Engines:     []string{"stub"},
		Open:        func(string) (engine.Engine, error) { return stub, nil },
		Interactive: relaxed,
		Batch:       relaxed,
		Metrics:     m,
		ChunkRows:   chunkRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return m, ts
}

func queryReq(t *testing.T, url, accept string) *http.Request {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"stmt": "SELECT ORDER", "engine": "stub"})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return req
}

// TestJSONAndBinaryCarrySameResult posts the same query with and without
// Accept: application/x-gdbw and requires the two encodings to carry the
// same result — cols, every row value, and row count — across a stream
// large enough to span several chunk flushes.
func TestJSONAndBinaryCarrySameResult(t *testing.T) {
	const rows = 600 // > 2 chunks at the explicit chunk size below
	_, ts := newStreamServer(t, &streamStub{rows: rows}, 256)

	// JSON side: keep rows as raw JSON for an exact representation.
	resp, err := http.DefaultClient.Do(queryReq(t, ts.URL, ""))
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json status %d: %s", resp.StatusCode, jsonBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type %q", ct)
	}
	var jr struct {
		Cols []string        `json:"cols"`
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(jsonBody, &jr); err != nil {
		t.Fatalf("json body: %v", err)
	}

	// Binary side: reassemble the framed stream.
	resp, err = http.DefaultClient.Do(queryReq(t, ts.URL, wire.ContentType))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("binary content type %q", ct)
	}
	br, err := wire.Collect(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if br.End.Rows != rows || len(br.Rows) != rows {
		t.Fatalf("binary rows: got %d frames / %d declared, want %d", len(br.Rows), br.End.Rows, rows)
	}

	// Compare through a common JSON rendering: the binary rows re-encoded
	// as JSON must match the JSON response's rows byte for byte.
	native := make([][]any, len(br.Rows))
	for i, row := range br.Rows {
		vals := make([]any, len(row))
		for j, v := range row {
			vals[j] = v.Native()
		}
		native[i] = vals
	}
	binRows, err := json.Marshal(native)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binRows, jr.Rows) {
		t.Fatalf("encodings diverge:\n  json:   %.120s\n  binary: %.120s", jr.Rows, binRows)
	}
	if len(jr.Cols) != 1 || jr.Cols[0] != "i" || len(br.Cols) != 1 || br.Cols[0] != "i" {
		t.Fatalf("cols diverge: json %v, binary %v", jr.Cols, br.Cols)
	}
}

// TestBinaryMidStreamFailureIsInBand: a query that fails after rows are on
// the wire cannot change its 200 status, but the binary client must still
// see a hard error, not a short result.
func TestBinaryMidStreamFailureIsInBand(t *testing.T) {
	_, ts := newStreamServer(t, &streamStub{rows: -1, failAt: 10}, 4)
	resp, err := http.DefaultClient.Do(queryReq(t, ts.URL, wire.ContentType))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want committed 200", resp.StatusCode)
	}
	_, err = wire.Collect(resp.Body)
	var se *wire.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("Collect error %v, want *wire.StatusError", err)
	}
	if se.Status != http.StatusUnprocessableEntity || se.Msg == "" {
		t.Fatalf("error frame: %+v", se)
	}
}

// TestJSONMidStreamFailureAbortsConnection: the JSON encoding has no in-band
// error channel, so a post-commit failure must surface as a killed
// connection (client read error), never as a silently truncated-but-valid
// body.
func TestJSONMidStreamFailureAbortsConnection(t *testing.T) {
	m, ts := newStreamServer(t, &streamStub{rows: -1, failAt: 10}, 4)
	resp, err := http.DefaultClient.Do(queryReq(t, ts.URL, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		// If the read somehow completed, the body must at least not parse
		// as a complete response.
		var out map[string]any
		if json.Unmarshal(body, &out) == nil {
			t.Fatalf("mid-stream failure produced a parseable body: %s", body)
		}
	}
	if got := m.Counters()["server.write_errors"]; got == 0 {
		t.Error("write_errors not counted for aborted stream")
	}
}

// TestMidStreamCancellation: a client that walks away mid-stream must
// cancel the executing query promptly (ctx.Err() reaches the engine) and
// leave no goroutine behind.
func TestMidStreamCancellation(t *testing.T) {
	stub := &streamStub{rows: -1, returned: make(chan error, 1), started: make(chan struct{})}
	_, ts := newStreamServer(t, stub, 8)

	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req := queryReq(t, ts.URL, "").WithContext(ctx)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Wait until rows are actually flowing, then hang up mid-stream.
	select {
	case <-stub.started:
	case <-time.After(5 * time.Second):
		cancel()
		t.Fatal("stream never started")
	}
	buf := make([]byte, 512)
	_, _ = resp.Body.Read(buf)
	cancel()
	resp.Body.Close()

	// The engine must observe the cancellation promptly — an infinite
	// stream otherwise never returns and this times out.
	select {
	case execErr := <-stub.returned:
		if execErr == nil {
			t.Fatal("infinite stream returned nil; cancellation did not reach the engine")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("QueryStream still running 5s after client disconnect")
	}

	// No goroutine leak: the handler and its timers wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// writeCounter is a listener whose connections count their Write calls,
// so a test can see how many socket writes a response took.
type writeCounter struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, writes: &l.writes}, nil
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestSmallResponseIsOneWrite: a result that fits in net/http's response
// buffer leaves the handler unflushed, so net/http sends it in one socket
// write with a Content-Length, on both encodings. A result larger than a
// chunk still streams: chunked, with one server.stream.chunks count per
// chunk-boundary flush (JSON) or per Chunk frame (binary).
func TestSmallResponseIsOneWrite(t *testing.T) {
	for _, c := range []struct {
		name       string
		accept     string
		rows       int
		chunked    bool
		wantChunks uint64
	}{
		{"json-one-row", "", 1, false, 0},
		{"binary-one-row", wire.ContentType, 1, false, 1},
		{"json-multi-chunk", "", 600, true, 2},
		{"binary-multi-chunk", wire.ContentType, 600, true, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := obs.NewRegistry()
			srv, err := server.New(server.Config{
				Engines:     []string{"stub"},
				Open:        func(string) (engine.Engine, error) { return &streamStub{rows: c.rows}, nil },
				Interactive: relaxed,
				Batch:       relaxed,
				Metrics:     m,
				ChunkRows:   256,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewUnstartedServer(srv.Handler())
			lis := &writeCounter{Listener: ts.Listener}
			ts.Listener = lis
			ts.Start()
			defer ts.Close()

			resp, err := http.DefaultClient.Do(queryReq(t, ts.URL, c.accept))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			chunked := len(resp.TransferEncoding) > 0
			if chunked != c.chunked {
				t.Errorf("Transfer-Encoding %v, want chunked=%v", resp.TransferEncoding, c.chunked)
			}
			if !c.chunked {
				if resp.ContentLength != int64(len(body)) {
					t.Errorf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
				}
				if n := lis.writes.Load(); n != 1 {
					t.Errorf("response took %d socket writes, want 1", n)
				}
			}
			if got := m.Counters()["server.stream.chunks"]; got != c.wantChunks {
				t.Errorf("server.stream.chunks = %d, want %d", got, c.wantChunks)
			}
		})
	}
}
