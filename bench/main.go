// Command gdbe2e is the repository's end-to-end benchmark: it serves one
// neograph engine through internal/server inside this process, drives it
// with closed-loop HTTP clients on four workloads, checks every answer,
// and reports the end-to-end metrics of BENCHMARK.json — or, with
// -trace 1, the per-layer metrics of a staged, traced pass. See
// bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"gdbm/internal/storage/vfs"
)

// runCap is the longest one workload run may take before the watchdog
// ends it: the contract's 180 s per run less a margin for teardown.
const runCap = 170 * time.Second

// killGrace bounds teardown after a signal: past it the process removes
// its scratch directory and exits without waiting for a stuck handler.
const killGrace = 1500 * time.Millisecond

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("gdbe2e", flag.ContinueOnError)
	name := fl.String("workload", "", "run one workload (default: all four)")
	seed := fl.Int64("seed", 1, "generator seed: graph and operation streams")
	seconds := fl.Float64("seconds", runSeconds, "measured window per workload, seconds")
	trace := fl.Int("trace", 0, "1 reports the per-layer metrics of the traced pass instead of the end-to-end metrics")
	selfcheck := fl.Bool("selfcheck", false, "run the suite twice, second time in reverse order, and compare the two")
	dir := fl.String("dir", "", "scratch directory, which must not exist yet: created, and removed on exit unless -trace 1 left spans.jsonl in it (default .bench_build/run-<pid>)")
	// Tests only: tiny graphs, one round, short warm-up and traced pass.
	quick := fl.Bool("quick", false, "")
	fl.Usage = func() {
		fmt.Fprintln(fl.Output(), "usage: gdbe2e [flags]")
		fl.VisitAll(func(f *flag.Flag) {
			if f.Usage != "" {
				fmt.Fprintf(fl.Output(), "  -%s\n    \t%s\n", f.Name, f.Usage)
			}
		})
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "gdbe2e: bad arguments")
		fl.Usage()
		return 2
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "gdbe2e: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{*w}
	}
	// One processor for clients and server together. The host lends two
	// cores that it shares with others: with both in use a run measured how
	// often the second one was to be had (spreads twice as wide).
	runtime.GOMAXPROCS(1)

	// The scratch directory is the program's own from creation to removal,
	// so removing it can never take a caller's files with it.
	scratch := *dir
	if scratch == "" {
		scratch = filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
		_ = vfs.OSFS.RemoveAll(scratch) // left by a killed process of the same pid
	} else if _, err := os.Stat(scratch); err == nil {
		fmt.Fprintf(os.Stderr, "gdbe2e: -dir %s exists; name a directory the benchmark may create and remove\n", scratch)
		return 2
	}
	data := filepath.Join(scratch, "data")
	if err := vfs.OSFS.MkdirAll(data); err != nil {
		fmt.Fprintln(os.Stderr, "gdbe2e:", err)
		return 1
	}
	var keptSpans atomic.Bool // read by the teardown watchdog's goroutine too
	cleanup := func() {
		doomed := scratch
		if keptSpans.Load() {
			doomed = data
		}
		_ = vfs.OSFS.RemoveAll(doomed)
	}
	defer cleanup()

	runs := len(todo)
	if *selfcheck {
		runs *= 2 * (selfcheckReps + 1) // two sets of untraced runs and a traced one
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, time.Duration(runs)*runCap)
	defer cancel()
	// Teardown after a signal or the watchdog is graceful but bounded.
	exited := make(chan struct{})
	defer close(exited)
	go func() {
		<-ctx.Done()
		select {
		case <-exited:
		case <-time.After(killGrace):
			fmt.Fprintln(os.Stderr, "gdbe2e: teardown overran, exiting")
			cleanup()
			os.Exit(3)
		}
	}()

	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, quick: *quick}
	ok := true
	if *selfcheck {
		ok = runSelfcheck(ctx, stdout, todo, cfg, data)
	} else {
		var spans []span
		for i := range todo {
			cfg.dir = filepath.Join(data, todo[i].name)
			res := runWorkload(ctx, &todo[i], cfg)
			if ctx.Err() != nil {
				break
			}
			if !report(stdout, res) {
				ok = false
			}
			spans = append(spans, res.spans...)
		}
		// The traced pass's spans are for a caller who named a place to
		// find them; the default scratch directory is removed whole.
		if *dir != "" && len(spans) > 0 && ctx.Err() == nil {
			if err := writeSpans(scratch, spans); err != nil {
				fmt.Fprintln(os.Stderr, "gdbe2e:", err)
				ok = false
			}
			keptSpans.Store(true)
		}
	}
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "gdbe2e: watchdog: run exceeded its time cap")
		} else {
			fmt.Fprintln(os.Stderr, "gdbe2e: interrupted")
		}
		return 3
	}
	if !ok {
		return 1
	}
	return 0
}

// report prints a run: every metric by name with its unit, then — as the
// last line — the result object the driver reads. A run that could not
// produce all its metrics prints no result line and reports failure.
func report(stdout io.Writer, res *runResult) bool {
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "gdbe2e: %s: %s\n", res.workload, e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, d := range res.defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "gdbe2e: %s: metric %s was not measured\n", res.workload, d.name)
			return false
		}
		exact := ""
		if d.exact {
			exact = "  exact"
		}
		fmt.Fprintf(stdout, "%-14s %-32s %16.6f %s%s\n", res.workload, d.name, v, d.unit, exact)
		out.Metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdbe2e:", err)
		return false
	}
	fmt.Fprintln(stdout, string(line))
	return res.correct
}

// selfcheckReps is how many untraced runs of a workload make one set of the
// self-check; the set's value of a metric is their median. Bounds are
// bounds on medians of runs: single runs of one binary, minutes apart,
// differ by more on a shared host.
const selfcheckReps = 3

// runSelfcheck runs every workload untraced (selfcheckReps times) and traced
// (once), twice — the second set in reverse order — prints the two sets side
// by side and fails if an end-to-end metric differs between them by more
// than its bound or an exact count differs at all.
func runSelfcheck(ctx context.Context, stdout io.Writer, todo []workload, cfg runConfig, scratch string) bool {
	type key struct {
		workload string
		trace    bool
	}
	sets := [2]map[key]*runResult{{}, {}}
	ok := true
	for set := 0; set < 2; set++ {
		for i := range todo {
			w := &todo[i]
			if set == 1 {
				w = &todo[len(todo)-1-i]
			}
			for _, traced := range []bool{false, true} {
				reps := selfcheckReps
				if traced {
					reps = 1
				}
				values := map[string][]float64{}
				var res *runResult
				for rep := 0; rep < reps; rep++ {
					c := cfg
					c.trace = traced
					c.dir = filepath.Join(scratch, fmt.Sprintf("%s-%d-%v-%d", w.name, set, traced, rep))
					res = runWorkload(ctx, w, c)
					if ctx.Err() != nil {
						return false
					}
					for _, e := range res.errs {
						fmt.Fprintf(os.Stderr, "gdbe2e: %s: %s\n", w.name, e)
					}
					if !res.correct {
						ok = false
					}
					for name, v := range res.metrics {
						values[name] = append(values[name], v)
					}
				}
				for name, v := range values {
					res.metrics[name] = medianF(v)
				}
				sets[set][key{w.name, traced}] = res
			}
		}
	}
	fmt.Fprintf(stdout, "%-14s %-32s %16s %16s %9s  %s\n", "workload", "metric", "first", "second", "diff", "verdict")
	for i := range todo {
		for _, traced := range []bool{false, true} {
			a, b := sets[0][key{todo[i].name, traced}], sets[1][key{todo[i].name, traced}]
			for _, d := range a.defs {
				x, y := a.metrics[d.name], b.metrics[d.name]
				// How much worse the worse set is than the better one,
				// as a share of the better one: the sense in which a
				// bound is defined.
				better := math.Min(math.Abs(x), math.Abs(y))
				if d.better == "higher" {
					better = math.Max(math.Abs(x), math.Abs(y))
				}
				diff := ratio(math.Abs(x-y), better)
				verdict := ""
				switch {
				case d.bound > 0 && diff > d.bound:
					verdict, ok = fmt.Sprintf("FAIL: beyond bound %.2f", d.bound), false
				case d.bound > 0:
					verdict = fmt.Sprintf("ok (bound %.2f)", d.bound)
				case d.exact && x != y:
					verdict, ok = "FAIL: exact count differs", false
				case d.exact:
					verdict = "ok (exact)"
				}
				fmt.Fprintf(stdout, "%-14s %-32s %16.6f %16.6f %8.2f%%  %s\n", todo[i].name, d.name, x, y, diff*100, verdict)
			}
		}
	}
	return ok
}
