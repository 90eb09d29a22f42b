package main

import (
	"fmt"
	"syscall"
	"time"
)

// The sandbox's speed changes under the benchmark: for minutes at a time
// the same binary on the same inputs completes a quarter fewer operations
// per second (README.md, "Observed spreads"), and no statistic taken inside
// a run of seconds can remove that. So every run measures the host next to
// the system: between the slices of its windows it times a fixed piece of
// reference work, and reports its timings in the seconds of a host that does
// the reference work in refNominal.
//
// The reference is refTrips one-byte round trips through a pipe, written
// and read back by the calling goroutine: kernel entries and exits and
// nothing else, no code of this repository, no allocation, nothing that can
// block. Of the candidates tried beside the four workloads (dependent loads
// over 32 MB, CRC-32, allocate-and-copy, loopback TCP round trips, HTTP
// pings against a net/http server) its time followed the workloads' own
// slowdowns most closely and was the cheapest: the served path is two
// socket reads, two socket writes and a poll per request, and what slows
// this host slows the kernel's side most.
const (
	refTrips   = 2000
	refNominal = 1400 * time.Microsecond // refTrips on the builder's host in a quiet phase
)

// hostRef is the pipe the reference work goes through.
type hostRef struct{ r, w int }

func newHostRef() (*hostRef, error) {
	var p [2]int
	if err := syscall.Pipe(p[:]); err != nil {
		return nil, fmt.Errorf("host reference: pipe: %w", err)
	}
	return &hostRef{r: p[0], w: p[1]}, nil
}

func (h *hostRef) close() {
	_ = syscall.Close(h.r)
	_ = syscall.Close(h.w)
}

// probe does the reference work once and returns how long it took. It must
// run while no client is active: with GOMAXPROCS 1 nothing else then
// competes for the processor, and no operation's latency includes it.
func (h *hostRef) probe() (time.Duration, error) {
	var b [1]byte
	start := time.Now()
	for i := 0; i < refTrips; i++ {
		if _, err := syscall.Write(h.w, b[:]); err != nil {
			return 0, fmt.Errorf("host reference: write: %w", err)
		}
		if _, err := syscall.Read(h.r, b[:]); err != nil {
			return 0, fmt.Errorf("host reference: read: %w", err)
		}
	}
	return time.Since(start), nil
}

// hostSpeed is the host's speed over a run as a share of the nominal
// host's: the nominal time of the reference work over its median time in
// the run. Above 1 the host was faster than nominal.
func hostSpeed(probes []int64) float64 {
	if len(probes) == 0 {
		return 1
	}
	return float64(refNominal) / median(probes)
}
