package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"gdbm/internal/cache"
	"gdbm/internal/engine"
	"gdbm/internal/query/gql"
	"gdbm/internal/query/plan"
	"gdbm/internal/server/wire"
	"gdbm/internal/storage/vfs"
)

// The traced pass replays one client's first few hundred operations five
// times against a freshly set-up engine, once per stage, and records a
// span around every call it makes into a layer:
//
//	stage 0  client.roundtrip   the real HTTP request over loopback
//	stage 1  server.handler     the same request handed to Handler().ServeHTTP
//	stage 2  engine.query       engine.QueryStream on the same engine
//	stage 3  engine.staged      gql.parse, plan.compile and plan.exec through
//	                            the public seams, one after the other
//	stage 4  store.exec         the plan again over the timing plan.Source,
//	         adj.pin            then AcquireSnapshot
//
// The timing source reads the clock twice per element the store delivers,
// which on a traversal is a tenth of the execution; so it has a stage of
// its own, and stage 3, which must add up to stage 2, runs without it.
//
// The five stages of one operation are five executions of it, so their
// spans lie apart in time; only gql.parse, plan.compile and plan.exec run
// inside their parent, engine.staged, and only they name one.
//
// A stage is not run back to back with the next on one operation: the
// repeat would find its pages and results cached by the stage before.
// Nor is it run over all operations before the next stage starts: the
// host's speed wanders within a second, and stages half a second apart
// could not be subtracted from each other. The operations are replayed in
// blocks of sweepBlock: one block through stage 0, the same block through
// stage 1, and so on, then the next block. A block reads several times the
// buffer pool, so each stage meets the pool the stage before left at the
// block's end; one goroutine issues everything in a fixed order, so the
// counts repeat exactly for a seed.
const (
	swRoundtrip = iota
	swHandler
	swQuery
	swStaged
	swStore
	numSweeps
)

const sweepBlock = 50

// span is one recorded interval. Spans of one operation share Workload and
// Op; Parent names the span of the same operation inside which this one ran.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Op       int    `json:"op"`
	Kind     string `json:"kind"`
	Start    int64  `json:"start_ns"` // since the pass began
	End      int64  `json:"end_ns"`
}

// counters is a snapshot of every counter the layers export.
type counters struct {
	reg   map[string]uint64
	cache map[string]cache.Stats
	fs    fsCounts
}

// add accumulates into c what the counters grew by between two snapshots.
func (c *counters) add(before, after counters) {
	if c.reg == nil {
		c.reg, c.cache = map[string]uint64{}, map[string]cache.Stats{}
	}
	for name, v := range after.reg {
		c.reg[name] += v - before.reg[name]
	}
	for tier, a := range after.cache {
		b, sum := before.cache[tier], c.cache[tier]
		sum.Hits += a.Hits - b.Hits
		sum.Misses += a.Misses - b.Misses
		sum.Evictions += a.Evictions - b.Evictions
		c.cache[tier] = sum
	}
	c.fs.reads += after.fs.reads - before.fs.reads
	c.fs.readBytes += after.fs.readBytes - before.fs.readBytes
	c.fs.readNS += after.fs.readNS - before.fs.readNS
}

func (s *sut) snapshot() counters {
	c := counters{reg: s.reg.Counters(), cache: s.eng.CacheStats()}
	if s.fs != nil {
		c.fs = s.fs.counts()
	}
	return c
}

// memResponse is an in-memory http.ResponseWriter for the handler stage.
type memResponse struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header {
	if m.hdr == nil {
		m.hdr = http.Header{}
	}
	return m.hdr
}
func (m *memResponse) WriteHeader(code int) { m.status = code }
func (m *memResponse) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.body.Write(p)
}
func (m *memResponse) Flush() {}

// opTrace is what the pass measured for one operation, in nanoseconds.
type opTrace struct {
	roundtrip, handler, query int64
	parse, compile, exec      int64
	storeExec, store          int64 // plan.exec over the timing source, and the store's share of it
	wireEnc, jsonEnc, wireDec int64
	pin                       int64
	staged                    bool // a read: stages 3 and 4 ran it through the public seams
	cacheHit                  bool // engine.query was served by the result cache
}

type traceResult struct {
	ops       []op
	per       []opTrace
	spans     []span
	real      counters // what the real requests of stage 0 added
	first     counters // around the whole pass, final flush included
	last      counters
	respBytes int64
	calls     int64
	elems     int64
	rows      int64
	userBytes int64
	flushNS   []int64
	syncNS    []int64
	fileBytes int64
	attempted int
	failed    int
	firstErr  error
}

type tracePass struct {
	s      *sut
	res    *traceResult
	t0     time.Time
	writes int
}

func (p *tracePass) span(name, parent string, i int, start time.Time, d time.Duration) {
	at := int64(start.Sub(p.t0))
	p.res.spans = append(p.res.spans, span{Workload: p.s.w.name, Name: name, Parent: parent, Op: i, Kind: p.res.ops[i].k.String(), Start: at, End: at + int64(d)})
}

func (p *tracePass) fail(err error) {
	p.res.failed++
	if p.res.firstErr == nil {
		p.res.firstErr = err
	}
}

// check counts one stage execution and compares its answer.
func (p *tracePass) check(o op, sweep int, got answer, err error) {
	p.res.attempted++
	if err == nil && got != o.want {
		err = fmt.Errorf("got %d rows sum %x, want %d rows sum %x", got.rows, got.sum, o.want.rows, o.want.sum)
	}
	if err != nil {
		p.fail(fmt.Errorf("traced sweep %d: %s: %w", sweep, o.stmt(sweepKeyOff(sweep)), err))
	}
}

// wrote applies the flush policy after an acknowledged write.
func (p *tracePass) wrote(o op) error {
	if !o.k.write() {
		return nil
	}
	p.writes++
	p.res.userBytes += o.userBytes()
	if p.writes%flushEvery != 0 {
		return nil
	}
	return p.flush()
}

func (p *tracePass) flush() error {
	t := time.Now()
	err := p.s.eng.Flush()
	p.res.flushNS = append(p.res.flushNS, int64(time.Since(t)))
	return err
}

// runTracedPass runs the five sweeps of n operations against s, which must
// be freshly set up, and audits every write afterwards.
func runTracedPass(ctx context.Context, s *sut, o *oracle, seed int64, n int) (*traceResult, error) {
	g := newOpGen(s.w, o, seed, 0, 0)
	g.setOnce = true
	res := &traceResult{ops: make([]op, n), per: make([]opTrace, n)}
	for i := range res.ops {
		res.ops[i] = g.next()
	}
	p := &tracePass{s: s, res: res, t0: time.Now()}
	c := newClient(s, nil)
	defer c.close()
	if s.fs != nil {
		s.fs.timing.Store(true)
		defer s.fs.timing.Store(false)
		s.fs.syncDurations() // drop the set-up's syncs
	}
	res.first = s.snapshot()

	sweeps := [numSweeps]func(ctx context.Context, i int, o op) error{
		swRoundtrip: func(ctx context.Context, i int, o op) error {
			start := time.Now()
			r := c.do(ctx, o, sweepKeyOff(swRoundtrip))
			p.span("client.roundtrip", "", i, start, r.rt)
			res.per[i].roundtrip = int64(r.rt)
			res.respBytes += int64(r.bytes)
			p.check(o, swRoundtrip, o.want, r.err) // do already compared the answer
			return nil
		},
		swHandler: func(ctx context.Context, i int, o op) error {
			req, err := newRequest(ctx, "/v1/query", requestBody(o.stmt(sweepKeyOff(swHandler))), s.w.binary)
			if err != nil {
				return err
			}
			var rec memResponse
			start := time.Now()
			s.srv.Handler().ServeHTTP(&rec, req)
			d := time.Since(start)
			p.span("server.handler", "", i, start, d)
			res.per[i].handler = int64(d)
			if rec.status != http.StatusOK {
				p.check(o, swHandler, answer{}, fmt.Errorf("status %d: %s", rec.status, bytes.TrimSpace(rec.body.Bytes())))
				return nil
			}
			got, err := digestBody(rec.body.Bytes(), s.w.binary)
			p.check(o, swHandler, got, err)
			return nil
		},
		swQuery: func(ctx context.Context, i int, o op) error {
			hits := s.eng.CacheStats()["results"].Hits
			var d digestSink
			start := time.Now()
			err := engine.QueryStream(ctx, s.eng, o.stmt(sweepKeyOff(swQuery)), &d)
			el := time.Since(start)
			p.span("engine.query", "", i, start, el)
			res.per[i].query = int64(el)
			res.per[i].cacheHit = s.eng.CacheStats()["results"].Hits > hits
			p.check(o, swQuery, d.a, err)
			return nil
		},
		swStaged: func(ctx context.Context, i int, o op) error {
			got, err := p.staged(ctx, swStaged, i, o)
			p.check(o, swStaged, got, err)
			return nil
		},
		swStore: func(ctx context.Context, i int, o op) error {
			got, err := p.staged(ctx, swStore, i, o)
			p.check(o, swStore, got, err)
			start := time.Now()
			_, release, err := s.eng.AcquireSnapshot()
			el := time.Since(start)
			if err != nil {
				return fmt.Errorf("acquire snapshot: %w", err)
			}
			release()
			p.span("adj.pin", "", i, start, el)
			res.per[i].pin = int64(el)
			return nil
		},
	}
	for lo := 0; lo < n; lo += sweepBlock {
		hi := min(lo+sweepBlock, n)
		for sw, run := range sweeps {
			var before counters
			if sw == swRoundtrip {
				before = s.snapshot()
			}
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					return res, err
				}
				if err := run(ctx, i, res.ops[i]); err != nil {
					return res, err
				}
				if err := p.wrote(res.ops[i]); err != nil {
					return res, fmt.Errorf("flush: %w", err)
				}
			}
			if sw == swRoundtrip {
				res.real.add(before, s.snapshot())
			}
		}
	}
	if err := p.flush(); err != nil {
		return res, fmt.Errorf("final flush: %w", err)
	}
	res.last = s.snapshot()
	if s.fs != nil {
		res.syncNS = s.fs.syncDurations()
	}

	// Every sweep applied the same writes to its own keys; all must hold.
	q := engineQueryFn(s.eng)
	for sw := 0; sw < numSweeps; sw++ {
		if err := audit(ctx, q, g.led.shifted(sweepKeyOff(sw))); err != nil {
			p.fail(err)
		}
	}
	if s.w.disk {
		var err error
		if res.fileBytes, err = s.fileBytes(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// staged performs operation i the way the engine does — parse, compile for
// the source, stream the operator tree — through the same public functions.
// In sweep swStaged it times each and puts the rows through the response
// encodings; in sweep swStore it puts the timing source between operators
// and store. A write's body runs behind gql's unexported executor; it is
// applied whole so that the sweep's state stays in step.
func (p *tracePass) staged(ctx context.Context, sweep, i int, o op) (answer, error) {
	stmt := o.stmt(sweepKeyOff(sweep))
	if o.k.write() {
		var d digestSink
		err := engine.QueryStream(ctx, p.s.eng, stmt, &d)
		return d.a, err
	}
	per := &p.res.per[i]
	var ts *timedSource
	var core plan.Source = p.s.eng.Core
	if sweep == swStore {
		ts = &timedSource{src: core}
		core = ts
	}
	src := plan.WithCancel(ctx, core)
	t0 := time.Now()
	st, err := gql.Parse(stmt)
	t1 := time.Now()
	if err != nil {
		return answer{}, err
	}
	if !st.ReadOnly() || st.Match == nil {
		return answer{}, fmt.Errorf("staged: %q is not a read", stmt)
	}
	tree, err := plan.CompileFor(st.Match, src)
	t2 := time.Now()
	if err != nil {
		return answer{}, err
	}
	// Into the sink that took stage 2's rows, as gql.ExecStreamCtx does.
	var d digestSink
	err = plan.Stream(tree, src, st.Columns(), &d)
	t3 := time.Now()
	if err != nil {
		return answer{}, err
	}
	if ts != nil {
		p.span("store.exec", "", i, t2, t3.Sub(t2))
		per.storeExec, per.store = int64(t3.Sub(t2)), ts.ns
		p.res.calls += ts.calls
		p.res.elems += ts.elems
		p.res.rows += int64(d.a.rows)
		return d.a, nil
	}
	p.span("engine.staged", "", i, t0, t3.Sub(t0))
	p.span("gql.parse", "engine.staged", i, t0, t1.Sub(t0))
	p.span("plan.compile", "engine.staged", i, t1, t2.Sub(t1))
	p.span("plan.exec", "engine.staged", i, t2, t3.Sub(t2))
	per.staged = true
	per.parse, per.compile, per.exec = int64(t1.Sub(t0)), int64(t2.Sub(t1)), int64(t3.Sub(t2))

	// The same rows, collected outside the timed part, through both
	// response encodings and the client's decoder, the way the server's
	// streams frame them.
	out, err := plan.Collect(tree, src, st.Columns())
	if err != nil {
		return answer{}, err
	}
	var buf bytes.Buffer
	t := time.Now()
	w := wire.NewWriter(&buf)
	err = w.Header(out.Cols)
	for at := 0; err == nil && at < len(out.Rows); at += 256 {
		err = w.Chunk(out.Rows[at:min(at+256, len(out.Rows))])
	}
	if err == nil {
		err = w.End(len(out.Rows), t3.Sub(t0))
	}
	per.wireEnc = int64(time.Since(t))
	if err != nil {
		return answer{}, err
	}
	t = time.Now()
	res, err := wire.Collect(bytes.NewReader(buf.Bytes()))
	per.wireDec = int64(time.Since(t))
	if err != nil {
		return answer{}, err
	}
	t = time.Now()
	if _, err := json.Marshal(out.Cols); err != nil {
		return answer{}, err
	}
	for _, row := range out.Rows {
		natives := make([]any, len(row))
		for j, v := range row {
			natives[j] = v.Native()
		}
		if _, err := json.Marshal(natives); err != nil {
			return answer{}, err
		}
	}
	per.jsonEnc = int64(time.Since(t))

	// The answer checked is the one that came back out of the decoder.
	var got answer
	for _, row := range res.Rows {
		got.addValues(row)
	}
	if got != d.a {
		return got, fmt.Errorf("staged: streamed and collected rows differ")
	}
	return got, nil
}

// writeSpans writes spans to dir/spans.jsonl, one JSON object per line.
func writeSpans(dir string, spans []span) error {
	f, w, err := vfs.Create(vfs.OSFS, filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
