// Command gdbbench regenerates the survey's comparison tables from the
// living engines and runs the performance sweep.
//
// Usage:
//
//	gdbbench -table all            # print Tables I–VIII
//	gdbbench -table 7              # print one table
//	gdbbench -diff                 # cell-by-cell diff vs the paper
//	gdbbench -perf -nodes 10000    # performance sweep (HPC-SGAB style)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gdbm"
	"gdbm/internal/engine/capability"
	"gdbm/internal/storage/vfs"
)

// benchConfig is the parsed flag set. Keeping it a value makes the flag
// matrix testable without re-parsing argv.
type benchConfig struct {
	table   string
	diff    bool
	perf    bool
	nodes   int
	degree  int
	seed    int64
	dir     string
	dirSet  bool   // -dir was given explicitly
	engines string // comma-separated subset for -perf; "" = all
}

func main() {
	var cfg benchConfig
	flag.StringVar(&cfg.table, "table", "all", "table to regenerate: 1..8 or 'all' or 'none'")
	flag.BoolVar(&cfg.diff, "diff", false, "print the cell-by-cell diff against the paper's matrices")
	flag.BoolVar(&cfg.perf, "perf", false, "run the performance sweep")
	flag.IntVar(&cfg.nodes, "nodes", 2000, "perf sweep graph size (nodes)")
	flag.IntVar(&cfg.degree, "degree", 4, "perf sweep edges per node")
	flag.Int64Var(&cfg.seed, "seed", 42, "workload seed")
	flag.StringVar(&cfg.dir, "dir", "", "data directory for disk-backed engines (default: temp)")
	flag.StringVar(&cfg.engines, "engines", "", "comma-separated engines for -perf (default: all)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "dir" {
			cfg.dirSet = true
		}
	})

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gdbbench:", err)
		os.Exit(1)
	}
}

// validateFlags rejects inconsistent flag combinations before any
// directory is created or any engine warms up, and resolves the engine
// subset for -perf. In particular, explicitly naming an
// external-memory-only engine (capability.NeedsDir) without an explicit
// -dir is an error: silently benching a disk-only archetype against a
// throwaway temp directory misreports what was measured.
func validateFlags(cfg benchConfig) ([]string, error) {
	all := gdbm.Engines()
	names := all
	if cfg.engines != "" {
		names = nil
		known := map[string]bool{}
		for _, n := range all {
			known[n] = true
		}
		for _, part := range strings.Split(cfg.engines, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if !known[part] {
				return nil, fmt.Errorf("unknown engine %q in -engines (have: %s)", part, strings.Join(all, ", "))
			}
			names = append(names, part)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("-engines lists no engines")
		}
		for _, n := range names {
			if capability.NeedsDir(n) && !cfg.dirSet {
				return nil, fmt.Errorf("engine %q is external-memory only (Table I): naming it in -engines requires an explicit -dir", n)
			}
		}
	}
	return names, nil
}

func run(cfg benchConfig) error {
	names, err := validateFlags(cfg)
	if err != nil {
		return err
	}
	dir := cfg.dir
	if dir == "" {
		tmp, err := vfs.OSFS.TempDir("gdbbench")
		if err != nil {
			return err
		}
		defer vfs.OSFS.RemoveAll(tmp)
		dir = tmp
	}

	openAll := func() ([]gdbm.Engine, func(), error) {
		var engines []gdbm.Engine
		for _, name := range gdbm.Engines() {
			opts := gdbm.Options{}
			if capability.NeedsDir(name) {
				opts.Dir = filepath.Join(dir, name)
				if err := vfs.OSFS.MkdirAll(opts.Dir); err != nil {
					return nil, nil, err
				}
			}
			e, err := gdbm.Open(name, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("open %s: %w", name, err)
			}
			engines = append(engines, e)
		}
		cleanup := func() {
			for _, e := range engines {
				e.Close()
			}
		}
		return engines, cleanup, nil
	}

	if cfg.table != "none" {
		engines, cleanup, err := openAll()
		if err != nil {
			return err
		}
		tables, err := gdbm.Tables(engines)
		cleanup()
		if err != nil {
			return err
		}
		want := map[string]string{
			"1": "I", "2": "II", "3": "III", "4": "IV",
			"5": "V", "6": "VI", "7": "VII", "8": "VIII",
		}
		for _, t := range tables {
			if cfg.table != "all" && want[cfg.table] != t.ID {
				continue
			}
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			if cfg.diff {
				mismatches := gdbm.DiffWithPaper(t)
				if len(mismatches) == 0 {
					if t.ID == "VIII" {
						fmt.Println("  (Table VIII has no machine-checkable reference: the paper's matrix is reconstructed; see EXPERIMENTS.md)")
					} else {
						fmt.Printf("  Table %s matches the paper cell for cell.\n", t.ID)
					}
				}
				for _, m := range mismatches {
					fmt.Println("  MISMATCH:", m)
				}
				fmt.Println()
			}
		}
	}

	if cfg.perf {
		fmt.Printf("performance sweep: R-MAT n=%d, degree=%d, seed=%d\n\n", cfg.nodes, cfg.degree, cfg.seed)
		open := func(name string) (gdbm.Engine, error) {
			opts := gdbm.Options{}
			// vertexkv is benched in its disk-backed configuration by
			// choice; disk-only archetypes get a directory by necessity.
			if capability.NeedsDir(name) || name == "vertexkv" {
				d := filepath.Join(dir, "perf-"+name)
				if err := vfs.OSFS.RemoveAll(d); err != nil {
					return nil, err
				}
				if err := vfs.OSFS.MkdirAll(d); err != nil {
					return nil, err
				}
				opts.Dir = d
			}
			return gdbm.Open(name, opts)
		}
		results, err := gdbm.RunPerf(open, names, cfg.nodes, cfg.degree, cfg.seed)
		if err != nil {
			return err
		}
		gdbm.RenderPerf(os.Stdout, results)
	}
	return nil
}
