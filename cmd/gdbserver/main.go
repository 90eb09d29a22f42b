// Command gdbserver serves the graph engines over HTTP with admission
// control per SLO class, request deadlines threaded into the query kernels,
// and graceful drain on SIGTERM/SIGINT. Query results stream as they are
// produced: chunked JSON by default, or length-prefixed binary frames when
// the client sends Accept: application/x-gdbw (see internal/server/wire).
//
// Usage:
//
//	gdbserver -addr :8080                         # serve all in-memory engines
//	gdbserver -engines neograph,gstore -seed-nodes 2000
//	gdbserver -rate 200 -burst 50 -inflight 16    # size the interactive class
//
// Endpoints:
//
//	POST /v1/query     {"stmt","engine"|"session","class","timeout_ms"}
//	POST /v1/session   {"engine"}           private engine instance
//	DELETE /v1/session/{id}
//	GET  /healthz      200 serving, 503 draining
//	GET  /statsz       admission and latency counters
//
// Overload answers 429 with Retry-After; draining answers 503; a query
// over deadline answers 504. See DESIGN.md "Overload & degradation
// contract".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "gdbm" // register the engines

	"gdbm/internal/gen"
	"gdbm/internal/obs"
	"gdbm/internal/server"
)

type serverConfig struct {
	addr      string
	engines   string
	seedNodes int
	seedDeg   int
	seedSeed  int64

	rate     float64
	burst    int
	inflight int
	queue    int
	weight   float64
	deadline time.Duration

	batchRate     float64
	batchBurst    int
	batchInflight int
	batchQueue    int
	batchWeight   float64
	batchDeadline time.Duration

	chunkRows int
	maxConns  int
	drainWait time.Duration
}

func main() {
	var cfg serverConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	flag.StringVar(&cfg.engines, "engines", "", "comma-separated engines to serve (default: all in-memory engines)")
	flag.IntVar(&cfg.seedNodes, "seed-nodes", 0, "seed each engine with an R-MAT graph of this many nodes (0 = empty)")
	flag.IntVar(&cfg.seedDeg, "seed-degree", 4, "seed graph edges per node")
	flag.Int64Var(&cfg.seedSeed, "seed", 42, "seed graph random seed")
	flag.Float64Var(&cfg.rate, "rate", server.DefaultInteractive.Rate, "interactive admission rate (req/s)")
	flag.IntVar(&cfg.burst, "burst", server.DefaultInteractive.Burst, "interactive burst")
	flag.IntVar(&cfg.inflight, "inflight", server.DefaultInteractive.MaxInflight, "interactive max in-flight queries")
	flag.IntVar(&cfg.queue, "queue", server.DefaultInteractive.MaxQueue, "interactive queue depth")
	flag.Float64Var(&cfg.weight, "weight", server.DefaultInteractive.Weight, "interactive share of pooled slots while contested")
	flag.DurationVar(&cfg.deadline, "deadline", server.DefaultInteractive.Deadline, "interactive per-query deadline")
	flag.Float64Var(&cfg.batchRate, "batch-rate", server.DefaultBatch.Rate, "batch admission rate (req/s)")
	flag.IntVar(&cfg.batchBurst, "batch-burst", server.DefaultBatch.Burst, "batch burst")
	flag.IntVar(&cfg.batchInflight, "batch-inflight", server.DefaultBatch.MaxInflight, "batch max in-flight queries")
	flag.IntVar(&cfg.batchQueue, "batch-queue", server.DefaultBatch.MaxQueue, "batch queue depth")
	flag.Float64Var(&cfg.batchWeight, "batch-weight", server.DefaultBatch.Weight, "batch share of pooled slots while contested")
	flag.DurationVar(&cfg.batchDeadline, "batch-deadline", server.DefaultBatch.Deadline, "batch per-query deadline")
	flag.IntVar(&cfg.chunkRows, "chunk-rows", 0, "rows per streamed response chunk (0 = server default)")
	flag.IntVar(&cfg.maxConns, "max-conns", 256, "max accepted TCP connections")
	flag.DurationVar(&cfg.drainWait, "drain-wait", 30*time.Second, "max time to wait for in-flight queries on shutdown")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gdbserver:", err)
		os.Exit(1)
	}
}

func run(cfg serverConfig) error {
	sc := server.Config{
		Interactive: server.ClassConfig{
			Rate: cfg.rate, Burst: cfg.burst, MaxInflight: cfg.inflight,
			MaxQueue: cfg.queue, Weight: cfg.weight, Deadline: cfg.deadline,
		},
		Batch: server.ClassConfig{
			Rate: cfg.batchRate, Burst: cfg.batchBurst, MaxInflight: cfg.batchInflight,
			MaxQueue: cfg.batchQueue, Weight: cfg.batchWeight, Deadline: cfg.batchDeadline,
		},
		Metrics:   obs.NewRegistry(),
		ChunkRows: cfg.chunkRows,
	}
	if cfg.engines != "" {
		for _, n := range strings.Split(cfg.engines, ",") {
			if n = strings.TrimSpace(n); n != "" {
				sc.Engines = append(sc.Engines, n)
			}
		}
	}
	if cfg.seedNodes > 0 {
		sc.Seed = &gen.Spec{
			Kind: gen.RMAT, Nodes: cfg.seedNodes,
			EdgesPerNode: cfg.seedDeg, Seed: cfg.seedSeed,
		}
	}
	srv, err := server.New(sc)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.maxConns > 0 {
		ln = server.LimitListener(ln, cfg.maxConns)
	}
	hs := &http.Server{Handler: srv.Handler()}

	// The smoke test parses this line for the port.
	fmt.Printf("gdbserver listening on %s engines=%s\n",
		ln.Addr(), strings.Join(srv.Engines(), ","))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: reject new queries with 503 immediately, then let
	// Shutdown wait for in-flight handlers up to the drain budget.
	fmt.Println("gdbserver draining")
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("gdbserver drained cleanly")
	return nil
}
