// Package par is the shared parallel-execution substrate for the query
// kernels: a bounded worker pool, degree-aware contiguous work splitting,
// and parallel variants of the essential-query kernels of internal/algo.
//
// Determinism is the design center. Every kernel follows the same shape —
// expand a frontier (or partition a candidate list) concurrently into
// per-item buffers, then merge the buffers sequentially in frontier order —
// so its results are identical to the sequential kernel's whenever the
// graph's iteration order is deterministic: same visit sequence, same
// result order, same early-stop behavior. Parallelism changes only the
// wall-clock, never the answer.
//
// Kernels fall back to their sequential counterparts below a configurable
// work-size threshold, where chunking overhead would dominate. Graphs
// handed to the kernels must be safe for concurrent readers; engines
// expose conforming views through engine.Concurrent, gated by the
// capability registry.
package par

import (
	"context"
	"runtime"
	"sync"
	"time"

	"gdbm/internal/obs"
)

// Pool is a bounded set of reusable worker goroutines. Work is submitted
// in fork-join batches through Map; when every worker is busy the
// submitting goroutine runs tasks itself (caller-runs overflow), so a Map
// call can never deadlock waiting on workers occupied by other callers.
type Pool struct {
	tasks   chan func()
	workers int
	once    sync.Once
}

// New starts a pool with the given number of worker goroutines;
// workers <= 0 selects runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func()), workers: workers}
	for i := 0; i < workers; i++ {
		go func() {
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers once in-flight tasks finish. Map must not be
// called after Close. Closing twice is a no-op.
func (p *Pool) Close() { p.once.Do(func() { close(p.tasks) }) }

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the shared process-wide pool, sized to GOMAXPROCS at
// first use. It is never closed.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(0) })
	return defaultPool
}

// Map runs fn(ctx, 0) … fn(ctx, n-1) concurrently on the pool and waits
// for all of them. The first non-nil error cancels the context handed to
// still-pending invocations and is returned; invocations that start after
// the failure return immediately. Tasks that cannot be handed to an idle
// worker run on the calling goroutine. When the parent context is
// canceled, Map returns its error after the in-flight tasks drain.
//
// When ctx carries an obs.Trace, each task handed to a worker records its
// queue wait (submit to start) in the "pool.queue_wait_ns" trace counter
// and "pool.tasks" counts the handoffs; caller-run overflow tasks never
// queue, so they contribute to neither. Worker-run tasks additionally
// carry a pprof label set (obs.Profile) naming the trace, so CPU profiles
// attribute pool samples to the query that scheduled them. With no trace
// in ctx none of this runs — the fan-out path is unchanged.
func (p *Pool) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	tr := obs.FromContext(ctx)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	run := func(i int) {
		defer wg.Done()
		if ctx.Err() != nil {
			return
		}
		if err := fn(ctx, i); err != nil {
			fail(err)
		}
	}
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		task := func() { run(i) }
		if tr != nil {
			enqueued := time.Now()
			task = func() {
				tr.Add("pool.queue_wait_ns", time.Since(enqueued).Nanoseconds())
				tr.Add("pool.tasks", 1)
				obs.Profile(ctx, func(context.Context) { run(i) },
					"pool", "map", "trace", tr.Name())
			}
		}
		select {
		case p.tasks <- task:
		default:
			run(i)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
