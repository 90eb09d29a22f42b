package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/server/wire"
)

// result is the outcome of one request.
type result struct {
	// ok: the server answered 200 with a well-formed body; for do, the
	// answer also equals the expected one.
	ok     bool
	got    answer
	status int
	err    error
	rt     time.Duration // request write to last body byte
	ttfb   time.Duration // request write to first response byte
	bytes  int
}

// client is one closed-loop caller: one keep-alive connection, the next
// request only after the previous reply.
type client struct {
	s    *sut
	gen  *opGen
	tr   *http.Transport
	hc   *http.Client
	body bytes.Buffer
}

func newClient(s *sut, g *opGen) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{s: s, gen: g, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// requestBody is the JSON request for stmt. The statements are built from
// digits and fixed text, but quoting keeps the body valid for any input.
func requestBody(stmt string) []byte {
	b := append([]byte(`{"engine":"`+engineName+`","stmt":`), strconv.Quote(stmt)...)
	return append(b, '}')
}

func newRequest(ctx context.Context, url string, body []byte, binary bool) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	return req, nil
}

// query sends one statement and digests the reply.
func (c *client) query(ctx context.Context, stmt string) result {
	var r result
	var first time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	})
	req, err := newRequest(ctx, c.s.url, requestBody(stmt), c.s.w.binary)
	if err != nil {
		r.err = err
		return r
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	r.rt = time.Since(start)
	r.ttfb = first.Sub(start)
	_ = resp.Body.Close()
	r.status = resp.StatusCode
	r.bytes = c.body.Len()
	if err != nil {
		r.err = err
		return r
	}
	if r.status != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(c.body.Bytes()))
		return r
	}
	r.got, r.err = digestBody(c.body.Bytes(), c.s.w.binary)
	r.ok = r.err == nil
	return r
}

// do runs one generated operation and checks its answer.
func (c *client) do(ctx context.Context, o op, keyOff int64) result {
	r := c.query(ctx, o.stmt(keyOff))
	if r.ok && r.got != o.want {
		r.ok = false
		r.err = fmt.Errorf("%s: got %d rows sum %x, want %d rows sum %x", o.stmt(keyOff), r.got.rows, r.got.sum, o.want.rows, o.want.sum)
	}
	return r
}

// digestBody decodes a response body in either encoding into its digest.
func digestBody(body []byte, binary bool) (answer, error) {
	var a answer
	if binary {
		res, err := wire.Collect(bytes.NewReader(body))
		if err != nil {
			return a, err
		}
		for _, row := range res.Rows {
			a.addValues(row)
		}
		return a, nil
	}
	var resp struct {
		Rows [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return a, err
	}
	for _, row := range resp.Rows {
		a.add(row...)
	}
	return a, nil
}

func (a *answer) addValues(row []model.Value) {
	var buf [4]float64
	vals := buf[:0]
	for _, v := range row {
		f, _ := v.AsFloat()
		vals = append(vals, f)
	}
	a.add(vals...)
}

// digestSink digests rows delivered straight from the engine.
type digestSink struct{ a answer }

func (d *digestSink) Cols([]string) error { return nil }
func (d *digestSink) Row(vals []model.Value) error {
	d.a.addValues(vals)
	return nil
}

// queryFn answers one statement; audits run over HTTP and, after a
// restart, straight on the reopened engine.
type queryFn func(ctx context.Context, stmt string) (answer, error)

func (c *client) asQueryFn() queryFn {
	return func(ctx context.Context, stmt string) (answer, error) {
		r := c.query(ctx, stmt)
		return r.got, r.err
	}
}

func engineQueryFn(q engine.Querier) queryFn {
	return func(ctx context.Context, stmt string) (answer, error) {
		var d digestSink
		err := engine.QueryStream(ctx, q, stmt, &d)
		return d.a, err
	}
}

// audit checks every write in led against what q reads back: each set
// node carries the last value set, each live T node exists once with its
// owner, and each deleted T node is gone.
func audit(ctx context.Context, q queryFn, led ledger) error {
	check := func(stmt string, want answer) error {
		got, err := q(ctx, stmt)
		if err != nil {
			return fmt.Errorf("audit %s: %w", stmt, err)
		}
		if got != want {
			return fmt.Errorf("audit %s: got %d rows sum %x, want %d rows sum %x", stmt, got.rows, got.sum, want.rows, want.sum)
		}
		return nil
	}
	for node, v := range led.hits {
		if err := check(op{k: kReadback, node: node}.stmt(0), scalar(float64(v))); err != nil {
			return err
		}
	}
	owner := func(key int64) string {
		return "MATCH (x:T {idx: " + strconv.FormatInt(key, 10) + "}) RETURN x.owner AS o"
	}
	for _, key := range led.live {
		if err := check(owner(key), scalar(float64(led.owner))); err != nil {
			return err
		}
	}
	for _, key := range led.dead {
		if err := check(owner(key), answer{}); err != nil {
			return err
		}
	}
	return nil
}

func (c *client) audit(ctx context.Context, led ledger) error {
	return audit(ctx, c.asQueryFn(), led)
}
