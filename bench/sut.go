package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/engines/neograph"
	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/server"
	"gdbm/internal/storage/vfs"
)

const engineName = "neograph"

// wideOpen keeps the token bucket and the stride scheduler on the request
// path without ever shedding: overload behaviour is gdbload's subject.
var wideOpen = server.ClassConfig{Rate: 1e6, Burst: 1e6, MaxInflight: 4, MaxQueue: 64}

// sut is the system under test: one neograph engine behind the query
// server on a loopback port, all inside this process.
type sut struct {
	w    *workload
	dir  string // this instance's data directory; "" in memory
	eng  *neograph.DB
	reg  *obs.Registry
	fs   *countFS // nil in memory
	srv  *server.Server
	hs   *http.Server
	done chan error // the Serve goroutine's result
	url  string
	addr string

	setup    time.Duration // open + generate + load + index + serve + warm-up
	load     time.Duration
	index    time.Duration
	scan     time.Duration
	heapMB   float64
	warmFail int
}

// ctxSink aborts a load once ctx is done, so a signal during the longest
// set-up step is honoured at the next element.
type ctxSink struct {
	ctx context.Context
	l   engine.Loader
}

func (s ctxSink) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	return s.l.LoadNode(label, props)
}

func (s ctxSink) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	return s.l.LoadEdge(label, from, to, props)
}

func (s *sut) engineOptions() engine.Options {
	if !s.w.disk {
		return engine.Options{Metrics: s.reg}
	}
	return engine.Options{Dir: s.dir, PoolPages: s.w.poolPages, CacheBytes: s.w.cacheBytes, FS: s.fs, Metrics: s.reg}
}

// openSUT performs one full set-up: open the engine, generate and load the
// graph, build the idx index, start the server and run the warm-up pass of
// warmup operations and the summarization check. o supplies the expected answers.
func openSUT(ctx context.Context, w *workload, o *oracle, seed int64, warmup int, dir string) (s *sut, err error) {
	s = &sut{w: w, reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			_ = s.close()
		}
	}()
	start := time.Now()
	if w.disk {
		s.dir = dir
		s.fs = newCountFS()
		if err := s.fs.MkdirAll(dir); err != nil {
			return s, err
		}
	}
	if s.eng, err = neograph.New(s.engineOptions()); err != nil {
		return s, fmt.Errorf("open engine: %w", err)
	}
	t := time.Now()
	if _, err = gen.Generate(graphSpec(o.nodes, seed), ctxSink{ctx, s.eng}); err != nil {
		return s, fmt.Errorf("load: %w", err)
	}
	s.load = time.Since(t)
	t = time.Now()
	if err = s.eng.CreateIndex("idx"); err != nil {
		return s, fmt.Errorf("index: %w", err)
	}
	s.index = time.Since(t)
	if err = s.eng.Flush(); err != nil {
		return s, fmt.Errorf("flush after load: %w", err)
	}
	if err = s.serve(); err != nil {
		return s, err
	}

	// Warm-up: a fixed number of operations from the workload's own mix,
	// checked like any other. Its writes are part of the state the window
	// starts from; it draws from the window's start-node population with
	// its own random stream and key space.
	c := newClient(s, newOpGen(w, o, seed, 0, 1))
	defer c.close()
	for i := 0; i < warmup && ctx.Err() == nil; i++ {
		if r := c.do(ctx, c.gen.next(), 0); !r.ok {
			s.warmFail++
		}
	}
	if err = c.audit(ctx, c.gen.led); err != nil {
		return s, fmt.Errorf("warm-up audit: %w", err)
	}
	// Summarization runs once, outside every timed mix: one label scan
	// costs a hundred times any other class.
	t = time.Now()
	r := c.query(ctx, "MATCH (a:N) RETURN count(*) AS n")
	s.scan = time.Since(t)
	if want := scalar(float64(o.nodes)); !r.ok || r.got != want {
		return s, fmt.Errorf("summarization: got %+v (%v), want %d nodes", r.got, r.err, o.nodes)
	}
	if err = ctx.Err(); err != nil {
		return s, err
	}
	s.setup = time.Since(start)
	return s, nil
}

// serve starts the query server over s.eng on a free loopback port.
func (s *sut) serve() error {
	srv, err := server.New(server.Config{
		Engines:     []string{engineName},
		Open:        func(string) (engine.Engine, error) { return s.eng, nil },
		Interactive: wideOpen,
		Metrics:     s.reg,
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.srv = srv
	s.addr = ln.Addr().String()
	s.url = "http://" + s.addr + "/v1/query"
	s.hs = &http.Server{Handler: srv.Handler()}
	s.done = make(chan error, 1)
	go func() { s.done <- s.hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "gdbe2e: %s: serving on %s\n", s.w.name, s.addr)
	return nil
}

// measureHeap forces a collection and records what stays resident: the
// loaded engine, its caches and indexes, the server, and the oracle.
func (s *sut) measureHeap() {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.heapMB = float64(m.HeapAlloc) / (1 << 20)
}

// stopServer drains and stops the HTTP server and waits for its
// goroutine. The engine stays open for audits.
func (s *sut) stopServer() {
	if s.hs == nil {
		return
	}
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.done
	s.hs = nil
}

// close stops the server, closes the engine and deletes the data
// directory. It is safe on a partly built sut.
func (s *sut) close() error {
	s.stopServer()
	var err error
	if s.eng != nil {
		err = s.eng.Close()
		s.eng = nil
	}
	if s.dir != "" {
		err = errors.Join(err, vfs.OSFS.RemoveAll(s.dir))
	}
	return err
}

// reopen closes the engine and opens it again from the files alone, as
// after a restart, and rebuilds the idx index (indexes are not persisted).
func (s *sut) reopen() error {
	s.stopServer()
	if err := s.eng.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	eng, err := neograph.New(s.engineOptions())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	s.eng = eng
	return s.eng.CreateIndex("idx")
}

// restart reopens the engine from its files and serves it again, then
// runs one point lookup so that the snapshot and the planner statistics
// exist. What the set-up left in the buffer pool depends on the iteration
// order of a Go map (the summarization walks the label index, a hash
// index); after a restart the pool holds the tail of two scans in key
// order, which depends on the seed alone.
func (s *sut) restart(ctx context.Context) error {
	if err := s.reopen(); err != nil {
		return err
	}
	if err := s.serve(); err != nil {
		return err
	}
	c := newClient(s, nil)
	defer c.close()
	if r := c.query(ctx, op{k: kPoint}.stmt(0)); !r.ok {
		return fmt.Errorf("restart: %w", r.err)
	}
	return nil
}

// fileBytes is the size of the engine's page file.
func (s *sut) fileBytes() (int64, error) {
	f, err := vfs.OSFS.OpenFile(filepath.Join(s.dir, "neograph.pg"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.Size()
}
