package report

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/storage/vfs"
)

// CacheResult is one (engine, kernel) measurement of the cache sweep.
// Uncached runs with CacheBytes=0, cold is the first pass on a cached
// instance (all misses), warm repeats the identical pass with the graph
// epoch unchanged so every tier can hit.
type CacheResult struct {
	Engine      string  `json:"engine"`
	Kernel      string  `json:"kernel"`
	UncachedNs  int64   `json:"uncached_ns"`
	ColdNs      int64   `json:"cold_ns"`
	WarmNs      int64   `json:"warm_ns"`
	WarmSpeedup float64 `json:"warm_speedup_vs_uncached"`
}

// CacheTierStats is the hit/miss ledger of one cache tier at the end of an
// engine's sweep.
type CacheTierStats struct {
	Tier      string `json:"tier"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	UsedBytes int64  `json:"used_bytes"`
}

// CacheSweep is the full cold/warm comparison across engines.
type CacheSweep struct {
	Nodes      int                         `json:"nodes"`
	Degree     int                         `json:"degree"`
	Seed       int64                       `json:"seed"`
	CacheBytes int64                       `json:"cache_bytes"`
	Note       string                      `json:"note"`
	Results    []CacheResult               `json:"results"`
	Stats      map[string][]CacheTierStats `json:"stats"`
}

// cacheKernels returns one full query pass per kernel over the sampled
// ids. A pass issues many operations so per-call timer noise averages out.
func cacheKernels(es engine.Essentials, ids []model.NodeID) map[string]func() error {
	kernels := map[string]func() error{}
	if es.KNeighborhood != nil {
		kernels["khood"] = func() error {
			for i := 0; i < 32; i++ {
				if _, err := es.KNeighborhood(ids[(i*37)%len(ids)], 2); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if es.NodeAdjacency != nil {
		kernels["adjacency"] = func() error {
			for i := 0; i < 64; i++ {
				a := ids[i%len(ids)]
				b := ids[(i*13+1)%len(ids)]
				if _, err := es.NodeAdjacency(a, b); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if es.Summarization != nil {
		kernels["summarize"] = func() error {
			for i := 0; i < 16; i++ {
				if _, err := es.Summarization(0, "N", "idx"); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return kernels
}

// RunCacheSweep ingests the same R-MAT graph into a cached and an uncached
// instance of each engine and times identical query passes: uncached,
// cold (first cached pass) and warm (repeat cached pass). open must honor
// cacheBytes; engines are closed before return.
func RunCacheSweep(open func(name string, cacheBytes int64) (engine.Engine, error),
	names []string, nodes, degree int, seed int64, cacheBytes int64) (*CacheSweep, error) {
	sweep := &CacheSweep{
		Nodes:      nodes,
		Degree:     degree,
		Seed:       seed,
		CacheBytes: cacheBytes,
		Note: "warm repeats the identical pass with no intervening mutation, so the " +
			"adjacency and result tiers serve hits; any mutation bumps the graph " +
			"epoch and the next pass is cold again by construction",
		Stats: map[string][]CacheTierStats{},
	}
	spec := gen.Spec{Kind: gen.RMAT, Nodes: nodes, EdgesPerNode: degree, Seed: seed}
	for _, name := range names {
		uncached, err := open(name, 0)
		if err != nil {
			return nil, fmt.Errorf("cache open %s uncached: %w", name, err)
		}
		cached, err := open(name, cacheBytes)
		if err != nil {
			uncached.Close()
			return nil, fmt.Errorf("cache open %s cached: %w", name, err)
		}
		err = func() error {
			uids, err := ingest(uncached, spec)
			if err != nil {
				return err
			}
			cids, err := ingest(cached, spec)
			if err != nil {
				return err
			}
			ukern := cacheKernels(uncached.Essentials(context.Background()), uids)
			ckern := cacheKernels(cached.Essentials(context.Background()), cids)
			for _, kname := range []string{"khood", "adjacency", "summarize"} {
				up, ok := ukern[kname]
				if !ok {
					continue
				}
				cp := ckern[kname]
				uncachedNs, err := timeOp(up)
				if err != nil {
					return fmt.Errorf("%s %s uncached: %w", name, kname, err)
				}
				// Cold: single-shot first pass; no warmup, by definition.
				start := time.Now()
				if err := cp(); err != nil {
					return fmt.Errorf("%s %s cold: %w", name, kname, err)
				}
				coldNs := time.Since(start).Nanoseconds()
				warmNs, err := timeOp(cp)
				if err != nil {
					return fmt.Errorf("%s %s warm: %w", name, kname, err)
				}
				sweep.Results = append(sweep.Results, CacheResult{
					Engine:      name,
					Kernel:      kname,
					UncachedNs:  uncachedNs,
					ColdNs:      coldNs,
					WarmNs:      warmNs,
					WarmSpeedup: float64(uncachedNs) / float64(warmNs),
				})
			}
			if cs, ok := cached.(engine.CacheStatser); ok {
				for tier, s := range cs.CacheStats() {
					sweep.Stats[name] = append(sweep.Stats[name], CacheTierStats{
						Tier: tier, Hits: s.Hits, Misses: s.Misses,
						Evictions: s.Evictions, UsedBytes: s.UsedBytes,
					})
				}
			}
			return nil
		}()
		uncached.Close()
		cached.Close()
		if err != nil {
			return nil, err
		}
	}
	return sweep, nil
}

func ingest(e engine.Engine, spec gen.Spec) ([]model.NodeID, error) {
	loader, ok := e.(engine.Loader)
	if !ok {
		return nil, fmt.Errorf("%s: no Loader surface", e.Name())
	}
	ids, err := gen.Generate(spec, loader)
	if err != nil {
		return nil, err
	}
	if p, ok := e.(engine.Persistent); ok {
		if err := p.Flush(); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// WriteCacheJSON writes the sweep to path through the vfs seam.
func WriteCacheJSON(fsys vfs.FS, path string, sweep *CacheSweep) error {
	data, err := json.MarshalIndent(sweep, "", "  ")
	if err != nil {
		return err
	}
	f, w, err := vfs.Create(fsys, path)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RenderCache prints the sweep as a per-engine kernel table.
func RenderCache(w io.Writer, sweep *CacheSweep) {
	fmt.Fprintf(w, "cache sweep: R-MAT n=%d degree=%d seed=%d, budget=%d bytes\n\n",
		sweep.Nodes, sweep.Degree, sweep.Seed, sweep.CacheBytes)
	eng := ""
	for _, r := range sweep.Results {
		if r.Engine != eng {
			eng = r.Engine
			fmt.Fprintf(w, "%s\n", eng)
		}
		fmt.Fprintf(w, "  %-10s uncached %10v   cold %10v   warm %10v   %5.2fx warm\n",
			r.Kernel,
			time.Duration(r.UncachedNs).Round(time.Microsecond),
			time.Duration(r.ColdNs).Round(time.Microsecond),
			time.Duration(r.WarmNs).Round(time.Microsecond),
			r.WarmSpeedup)
	}
	engines := make([]string, 0, len(sweep.Stats))
	for eng := range sweep.Stats {
		engines = append(engines, eng)
	}
	sort.Strings(engines)
	for _, eng := range engines {
		tiers := append([]CacheTierStats(nil), sweep.Stats[eng]...)
		sort.Slice(tiers, func(i, j int) bool { return tiers[i].Tier < tiers[j].Tier })
		for _, s := range tiers {
			fmt.Fprintf(w, "%s %s: hits=%d misses=%d evictions=%d used=%d\n",
				eng, s.Tier, s.Hits, s.Misses, s.Evictions, s.UsedBytes)
		}
	}
	fmt.Fprintf(w, "\n%s\n", sweep.Note)
}
