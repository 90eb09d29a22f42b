package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gdbm/internal/storage/vfs"
)

// sample is one verified operation of the window.
type sample struct {
	k        kind
	rt, ttfb int64 // ns
}

type windowResult struct {
	samples   []sample
	elapsed   time.Duration // summed over the slices: start to the last client's last reply
	refNS     []int64       // the host reference, probed before every slice
	attempted int
	failed    int
	firstErr  error
	flushNS   []int64
	syncNS    []int64
	alloc     uint64 // bytes allocated during the window
	gcPauseNS uint64
	ledgers   []ledger
}

// windowClient is one closed-loop caller of a window and what it has seen.
type windowClient struct {
	c                 *client
	samples           []sample
	flushNS           []int64
	attempted, failed int
	firstErr          error
}

// run issues operations until deadline and checks every answer. writes
// counts the acknowledged writes of all clients of the window.
func (wc *windowClient) run(ctx context.Context, s *sut, deadline time.Time, writes *atomic.Int64) {
	for ctx.Err() == nil && time.Now().Before(deadline) {
		op := wc.c.gen.next()
		r := wc.c.do(ctx, op, 0)
		wc.attempted++
		if !r.ok {
			wc.fail(r.err)
			continue
		}
		wc.samples = append(wc.samples, sample{op.k, int64(r.rt), int64(r.ttfb)})
		// The stated flush policy: by count of acknowledged writes, never
		// by timer.
		if op.k.write() && writes.Add(1)%flushEvery == 0 {
			t := time.Now()
			err := s.eng.Flush()
			wc.flushNS = append(wc.flushNS, int64(time.Since(t)))
			if err != nil {
				wc.fail(fmt.Errorf("flush: %w", err))
			}
		}
	}
}

func (wc *windowClient) fail(err error) {
	wc.failed++
	if wc.firstErr == nil {
		wc.firstErr = err
	}
}

// sliceLen is how long the clients run between two probes of the host. It
// is several times the longest operation of any mix (rw_disk's 50-80 ms
// statement after a write), so that the clients spend nearly all of a
// slice running side by side.
const sliceLen = 250 * time.Millisecond

// runWindow drives s with numClients closed-loop clients for d and checks
// every answer. round numbers the window's part of the run, so that every
// part continues with operations of its own. The window is a sequence of
// slices: before each the host reference is probed while no client runs,
// then the clients run side by side until the slice's deadline and finish
// the operation they are in. Time counts only while clients run.
func runWindow(ctx context.Context, s *sut, o *oracle, ref *hostRef, seed int64, round int, d time.Duration) *windowResult {
	res := &windowResult{ledgers: make([]ledger, numClients)}
	if s.fs != nil {
		s.fs.syncDurations()
	}
	clients := make([]*windowClient, numClients)
	for id := range clients {
		clients[id] = &windowClient{c: newClient(s, newOpGen(s.w, o, seed, id, 2+round))}
		defer clients[id].c.close()
	}
	var writes atomic.Int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for left := d; left > 0 && ctx.Err() == nil; left -= sliceLen {
		took, err := ref.probe()
		if err != nil {
			res.attempted++
			res.failed++
			res.firstErr = err
			break
		}
		res.refNS = append(res.refNS, int64(took))
		start := time.Now()
		deadline := start.Add(min(left, sliceLen))
		var wg sync.WaitGroup
		for _, wc := range clients {
			wg.Add(1)
			go func(wc *windowClient) {
				defer wg.Done()
				wc.run(ctx, s, deadline, &writes)
			}(wc)
		}
		wg.Wait()
		res.elapsed += time.Since(start)
	}
	runtime.ReadMemStats(&m1)
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	res.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	if s.fs != nil {
		res.syncNS = s.fs.syncDurations()
	}
	for id, wc := range clients {
		res.samples = append(res.samples, wc.samples...)
		res.flushNS = append(res.flushNS, wc.flushNS...)
		res.attempted += wc.attempted
		res.failed += wc.failed
		if res.firstErr == nil {
			res.firstErr = wc.firstErr
		}
		res.ledgers[id] = wc.c.gen.led
	}
	return res
}

// auditWindow checks every write the window's clients made: over HTTP on
// the running server, then — on disk — after Flush, close and reopen from
// the files alone, as after a restart.
func auditWindow(ctx context.Context, s *sut, ledgers []ledger) error {
	c := newClient(s, nil)
	defer c.close()
	for _, led := range ledgers {
		if err := c.audit(ctx, led); err != nil {
			return err
		}
	}
	if !s.w.disk {
		return nil
	}
	if err := s.eng.Flush(); err != nil {
		return fmt.Errorf("flush before restart: %w", err)
	}
	if err := s.reopen(); err != nil {
		return err
	}
	q := engineQueryFn(s.eng)
	for _, led := range ledgers {
		if err := audit(ctx, q, led); err != nil {
			return fmt.Errorf("after restart: %w", err)
		}
	}
	return nil
}

// quantile is the nearest-rank q-quantile of sorted values, 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []int64) float64 { return quantile(sortedCopy(v), 0.5) }

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runResult is the outcome of one workload run.
type runResult struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	errs      []string
	// metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	metrics map[string]float64
	defs    []metricDef
	spans   []span // of the traced pass
}

func (r *runResult) errorf(format string, args ...any) {
	r.correct = false
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// runConfig is what one run of a workload needs besides the workload.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	dir    string // scratch directory of this run
	// quick shrinks everything but the window for tests: see quickSizes.
	quick bool
	// tamperOracle and tamperLedgers let a test alter an expected answer
	// or a recorded write before it is used, to prove the checks live.
	tamperOracle  func(*oracle)
	tamperLedgers func([]ledger)
}

// windowStats accumulates the windows of a run's rounds. Every statistic is
// taken over all verified operations of all rounds together.
type windowStats struct {
	rts, ttfbs        []int64
	byKind            [numKinds][]int64
	elapsed           time.Duration
	attempted, failed int
	alloc, gcPauseNS  uint64
	flushNS, syncNS   []int64
	refNS             []int64
}

func (a *windowStats) add(win *windowResult) {
	for _, sm := range win.samples {
		a.rts = append(a.rts, sm.rt)
		a.ttfbs = append(a.ttfbs, sm.ttfb)
		a.byKind[sm.k] = append(a.byKind[sm.k], sm.rt)
	}
	a.elapsed += win.elapsed
	a.attempted += win.attempted
	a.failed += win.failed
	a.alloc += win.alloc
	a.gcPauseNS += win.gcPauseNS
	a.flushNS = append(a.flushNS, win.flushNS...)
	a.syncNS = append(a.syncNS, win.syncNS...)
	a.refNS = append(a.refNS, win.refNS...)
}

// endToEndMetrics are what the callers saw — verified operations per second
// of window, and the round trip's median and 95th percentile over every
// verified operation — and the set-up time, all four in the seconds of the
// nominal host: a run on a host at 0.8 of the nominal speed has its times
// multiplied by 0.8 and its rate divided by it. The speed is the run's own,
// from the probes between the slices of its windows (hostref.go).
func (a *windowStats) endToEndMetrics(m map[string]float64, setupS float64) {
	speed := hostSpeed(a.refNS)
	sorted := sortedCopy(a.rts)
	m["setup_s"] = setupS * speed
	m["ops_per_s"] = float64(len(sorted)) / a.elapsed.Seconds() / speed
	m["p50_ms"] = quantile(sorted, 0.5) / 1e6 * speed
	m["p95_ms"] = quantile(sorted, 0.95) / 1e6 * speed
}

// clientMetrics are the per-layer metrics taken from the window, all as
// measured on the host as it was: host.speed is what the end-to-end metrics
// of the same window would be scaled by.
func (a *windowStats) clientMetrics(m map[string]float64) {
	sorted := sortedCopy(a.rts)
	m["client.p50_ms"] = quantile(sorted, 0.5) / 1e6
	m["client.p95_ms"] = quantile(sorted, 0.95) / 1e6
	m["client.p99_ms"] = quantile(sorted, 0.99) / 1e6
	m["client.ttfb_p50_ms"] = median(a.ttfbs) / 1e6
	for k := kind(0); k < numKinds; k++ {
		m["client.p50_ms."+k.String()] = median(a.byKind[k]) / 1e6
	}
	samples := float64(len(a.rts))
	m["client.samples"] = samples
	m["client.ops_per_s"] = samples / a.elapsed.Seconds()
	m["host.speed"] = hostSpeed(a.refNS)
	m["client.fail_ratio"] = ratio(float64(a.failed), float64(a.attempted))
	m["go.alloc_bytes_per_op"] = ratio(float64(a.alloc), samples)
	m["go.gc_pause_ms"] = float64(a.gcPauseNS) / 1e6
}

// runWorkload performs one run of w. An untraced run is a sequence of
// rounds, each a complete set-up followed by its share of the window, the
// audits and the teardown; a traced run is one round followed by the
// traced pass on a second, fresh set-up.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) *runResult {
	res := &runResult{workload: w.name, correct: true, metrics: map[string]float64{}, defs: endToEnd}
	if cfg.trace {
		res.defs = perLayer
	}
	seed, dir := cfg.seed, cfg.dir
	ref, err := newHostRef()
	if err != nil {
		res.errorf("%v", err)
		return res
	}
	defer ref.close()
	sz := fullSizes(w)
	if cfg.quick {
		sz = quickSizes
	}
	if cfg.trace {
		sz.rounds = 1
	}
	if err := vfs.OSFS.MkdirAll(dir); err != nil {
		res.errorf("scratch: %v", err)
		return res
	}
	o, err := newOracle(sz.nodes, seed)
	if err != nil {
		res.errorf("oracle: %v", err)
		return res
	}
	if cfg.tamperOracle != nil {
		cfg.tamperOracle(o)
	}

	// Spreading the window over the rounds costs nothing and makes one
	// run sample the host over its whole length instead of its last
	// seconds.
	part := cfg.window / time.Duration(sz.rounds)
	var (
		stats         windowStats
		setups, heaps []float64
		last          *sut
		served        = map[string]uint64{} // server counters of every set-up
	)
	for i := 0; i < sz.rounds; i++ {
		s, err := openSUT(ctx, w, o, seed, sz.warmup, filepath.Join(dir, fmt.Sprintf("data%d", i)))
		if err != nil {
			res.errorf("set-up: %v", err)
			return res
		}
		last = s
		setups = append(setups, s.setup.Seconds())
		res.attempted += sz.warmup
		res.failed += s.warmFail
		s.measureHeap()
		heaps = append(heaps, s.heapMB)

		win := runWindow(ctx, s, o, ref, seed, i, part)
		stats.add(win)
		res.attempted += win.attempted
		res.failed += win.failed
		if win.firstErr != nil {
			res.errorf("window: %d of %d operations failed, first: %v", win.failed, win.attempted, win.firstErr)
		}
		if cfg.tamperLedgers != nil {
			cfg.tamperLedgers(win.ledgers)
		}
		if err := ctx.Err(); err != nil {
			res.errorf("interrupted: %v", err)
		} else if err := auditWindow(ctx, s, win.ledgers); err != nil {
			res.errorf("%v", err)
		}
		addCounters(served, s.reg.Counters())
		if err := s.close(); err != nil {
			res.errorf("close: %v", err)
		}
		if ctx.Err() != nil {
			return res
		}
	}
	if len(stats.rts) == 0 {
		res.errorf("no operation completed")
		return res
	}
	m := res.metrics
	if !cfg.trace {
		stats.endToEndMetrics(m, medianF(setups))
		fmt.Fprintf(os.Stderr, "gdbe2e: %s: host speed %.3f of nominal over %d probes\n", w.name, hostSpeed(stats.refNS), len(stats.refNS))
		m["mem_mb"] = medianF(heaps)
		res.correct = res.correct && res.failed == 0
		return res
	}

	stats.clientMetrics(m)
	m["gen.load_elems_per_s"] = float64(o.nodes+o.edges) / last.load.Seconds()
	m["engine.index_build_ms"] = last.index.Seconds() * 1e3
	m["plan.scan_ms"] = last.scan.Seconds() * 1e3

	// The stages of a pass are separate executions of each operation, so
	// interference that covers one stage and not the next can break the
	// pass's invariants. Such a pass is repeated once; a second failure is
	// the run's.
	windowP50 := quantile(sortedCopy(stats.rts), 0.5)
	for attempt := 1; ; attempt++ {
		tr := res.tracedPass(ctx, w, o, cfg, sz, served)
		if tr == nil {
			return res
		}
		res.spans = tr.spans
		layerMetrics(m, w, o, tr, stats.flushNS, stats.syncNS, windowP50, served)
		// Timings of a quick run are of tiny graphs, taken beside the
		// other packages' tests: not reported, not held to the invariants.
		err := stagingValid(m)
		if err == nil || cfg.quick {
			break
		}
		if attempt == 2 {
			res.errorf("traced pass: %v", err)
			break
		}
		fmt.Fprintf(os.Stderr, "gdbe2e: %s: traced pass repeated: %v\n", w.name, err)
	}
	res.correct = res.correct && res.failed == 0
	return res
}

// tracedPass runs the traced pass on a set-up of its own — its state must
// depend on the seed alone, not on what two racing clients left — and
// tears it down. It returns nil when the pass could not be completed.
func (res *runResult) tracedPass(ctx context.Context, w *workload, o *oracle, cfg runConfig, sz sizes, served map[string]uint64) *traceResult {
	s, err := openSUT(ctx, w, o, cfg.seed, sz.warmup, filepath.Join(cfg.dir, "traced"))
	if err != nil {
		res.errorf("traced set-up: %v", err)
		return nil
	}
	res.attempted += sz.warmup
	res.failed += s.warmFail
	if w.disk {
		if err := s.restart(ctx); err != nil {
			res.errorf("traced set-up: %v", err)
			_ = s.close()
			return nil
		}
	}
	tr, err := runTracedPass(ctx, s, o, cfg.seed, sz.traced)
	res.attempted += tr.attempted
	res.failed += tr.failed
	if tr.firstErr != nil {
		res.errorf("traced pass: %d of %d stage executions failed, first: %v", tr.failed, tr.attempted, tr.firstErr)
	}
	addCounters(served, s.reg.Counters())
	if cerr := s.close(); cerr != nil {
		res.errorf("traced teardown: %v", cerr)
	}
	if err != nil {
		res.errorf("traced pass: %v", err)
		return nil
	}
	return tr
}

func addCounters(sum, c map[string]uint64) {
	for name, v := range c {
		sum[name] += v
	}
}

// stageSlack is how far the staged parts may disagree with the whole, as a
// share of the whole, before the staging is called invalid.
const stageSlack = 0.15

// stagingValid holds the traced pass to its own invariants. The stages are
// separate executions of one operation, milliseconds apart, so each is
// judged at the median over the pass, which a burst of interference on a
// few operations cannot move: the staged parts sum to engine.query within
// the slack, and within the same slack a request is no shorter than its
// handler call, and that no shorter than the engine's query. When one fails the stages do not
// describe one request and their differences mean nothing.
func stagingValid(m map[string]float64) error {
	switch {
	case m["engine.stage_gap_ratio"] > stageSlack:
		return fmt.Errorf("engine.stage_gap_ratio %.3f: parse + compile + exec is not engine.query within %.2f", m["engine.stage_gap_ratio"], stageSlack)
	case m["net.self_us_p50"] < -stageSlack*m["server.handler_us_p50"]:
		return fmt.Errorf("server.handler outlasts client.roundtrip (net.self %.1f us of %.1f)", m["net.self_us_p50"], m["server.handler_us_p50"])
	case m["server.self_us_p50"] < -stageSlack*m["engine.query_us_p50"]:
		return fmt.Errorf("engine.query outlasts server.handler (server.self %.1f us of %.1f)", m["server.self_us_p50"], m["engine.query_us_p50"])
	}
	return nil
}

// layerMetrics derives the per-layer metrics of the traced pass.
func layerMetrics(m map[string]float64, w *workload, o *oracle, tr *traceResult, flushNS, syncNS []int64, windowP50ns float64, server map[string]uint64) {
	var roundtrip, handler, query, netSelf, srvSelf, pin []int64
	var parse, compile, exec, execSelf, wireEnc, jsonEnc, wireDec []int64
	var gaps, clock []float64
	var storeNS int64
	staged := 0
	for _, p := range tr.per {
		roundtrip = append(roundtrip, p.roundtrip)
		handler = append(handler, p.handler)
		query = append(query, p.query)
		netSelf = append(netSelf, p.roundtrip-p.handler)
		srvSelf = append(srvSelf, p.handler-p.query)
		pin = append(pin, p.pin)
		if !p.staged {
			continue
		}
		staged++
		parse = append(parse, p.parse)
		compile = append(compile, p.compile)
		exec = append(exec, p.exec)
		clock = append(clock, float64(p.storeExec-p.exec)/float64(p.exec))
		execSelf = append(execSelf, p.storeExec-p.store)
		storeNS += p.store
		wireEnc = append(wireEnc, p.wireEnc)
		jsonEnc = append(jsonEnc, p.jsonEnc)
		wireDec = append(wireDec, p.wireDec)
		// The public seams reproduce the engine's path only when the
		// engine really executed: a result-cache hit ran no plan.
		if !p.cacheHit {
			gaps = append(gaps, float64(p.parse+p.compile+p.exec-p.query)/float64(p.query))
		}
	}
	us := func(v []int64) float64 { return median(v) / 1e3 }
	m["client.roundtrip_us_p50"] = us(roundtrip)
	m["server.handler_us_p50"] = us(handler)
	m["engine.query_us_p50"] = us(query)
	m["net.self_us_p50"] = us(netSelf)
	m["server.self_us_p50"] = us(srvSelf)
	m["gql.parse_us_p50"] = us(parse)
	m["plan.compile_us_p50"] = us(compile)
	m["plan.compile_us_p95"] = quantile(sortedCopy(compile), 0.95) / 1e3
	m["plan.exec_us_p50"] = us(exec)
	m["plan.exec_self_us_p50"] = us(execSelf)
	m["store.us_per_op"] = ratio(float64(storeNS)/1e3, float64(staged))
	m["store.calls_per_op"] = ratio(float64(tr.calls), float64(staged))
	m["plan.rows_examined_per_row"] = ratio(float64(tr.elems), float64(tr.rows))
	m["wire.encode_us_p50"] = us(wireEnc)
	m["json.encode_us_p50"] = us(jsonEnc)
	m["wire.decode_us_p50"] = us(wireDec)
	m["adj.pin_us_p50"] = us(pin)
	m["adj.pin_us_p95"] = quantile(sortedCopy(pin), 0.95) / 1e3
	m["engine.stage_gap_ratio"] = math.Abs(medianF(gaps))
	n := float64(len(tr.per))
	m["trace.overhead_ratio"] = ratio(median(roundtrip), windowP50ns)
	m["trace.store_overhead_ratio"] = medianF(clock)
	m["wire.resp_bytes_per_op"] = float64(tr.respBytes) / n

	// What the counters grew by during stage 0, the real requests.
	reg := func(name string) float64 { return float64(tr.real.reg[name]) }
	m["server.chunks_per_op"] = reg("server.stream.chunks") / n
	m["kvgraph.node_reads_per_op"] = reg("kvgraph.node_reads") / n
	m["kvgraph.edge_reads_per_op"] = reg("kvgraph.edge_reads") / n
	m["kvgraph.adj_scans_per_op"] = reg("kvgraph.adj_scans") / n
	m["pager.page_reads_per_op"] = reg("pager.page_reads") / n
	for _, tier := range []string{"page", "adjacency", "results"} {
		c := tr.real.cache[tier]
		m["cache."+tier+".hit_ratio"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
		if tier == "page" {
			m["cache.page.evictions_per_op"] = float64(c.Evictions) / n
		}
	}
	m["vfs.reads_per_op"] = float64(tr.real.fs.reads) / n
	m["vfs.read_bytes_per_op"] = float64(tr.real.fs.readBytes) / n
	m["vfs.read_us_per_op"] = float64(tr.real.fs.readNS) / 1e3 / n

	// Whole-pass totals, all five sweeps and the final flush: page writes
	// happen at flushes, which fall where the write count puts them and
	// not in every sweep.
	all := float64(numSweeps * len(tr.per))
	m["pager.page_writes_per_op"] = float64(tr.last.reg["pager.page_writes"]-tr.first.reg["pager.page_writes"]) / all
	m["vfs.writes_per_op"] = float64(tr.last.fs.writes-tr.first.fs.writes) / all
	m["pager.syncs"] = float64(tr.last.reg["pager.syncs"] - tr.first.reg["pager.syncs"])
	m["vfs.syncs"] = float64(tr.last.fs.syncs - tr.first.fs.syncs)
	m["vfs.write_bytes_per_user_byte"] = ratio(float64(tr.last.fs.writeBytes-tr.first.fs.writeBytes), float64(tr.userBytes))
	m["pager.file_bytes_per_user_byte"] = ratio(float64(tr.fileBytes), float64(o.userSize))
	// Flush and sync times come from the window when it flushed: it has
	// the samples and the second client to stall. Short windows fall
	// back to the pass's own.
	if len(flushNS) == 0 {
		flushNS, syncNS = tr.flushNS, tr.syncNS
	}
	if !w.disk {
		flushNS, syncNS = nil, nil
	}
	m["pager.flush_ms_p50"] = median(flushNS) / 1e6
	m["vfs.sync_ms_p50"] = median(syncNS) / 1e6

	// Admission counters of both servers of the run: warm-ups, the window
	// and the two sweeps that went through the handler.
	offered := float64(server["server.interactive.offered"])
	shed := float64(server["server.interactive.shed_rate"] + server["server.interactive.shed_queue"])
	m["server.shed_ratio"] = ratio(shed, offered)
	m["server.timeouts"] = float64(server["server.interactive.timeout"])
}
