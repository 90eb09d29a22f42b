package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesProgram holds BENCHMARK.json and the program's tables to
// each other, name for name, and both to the contract's limits.
func TestSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var spec specFile
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds != runSeconds || runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds = %d, the program's -seconds default %d, want equal and in [1, 60]", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) || len(workloads) != 4 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program, want 4", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not well formed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []specMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			unique(g.Name)
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is not well formed", g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25] and equal the program's %v", g.Name, d.bound)
			case !bounded && (g.Bound != nil || d.bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	compare("per_layer", spec.PerLayer, perLayer, 128, false)

	e2e := map[string]metricDef{}
	for _, d := range endToEnd {
		e2e[d.name] = d
	}
	if s := e2e["setup_s"]; s.unit != "s" || s.better != "lower" {
		t.Errorf("setup_s must be in s, lower is better")
	}
	for _, d := range endToEnd {
		if d.bound > e2e["setup_s"].bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
	// Every per-layer metric says which end-to-end metric it should move,
	// on which workload, and — where it names one — where it must not.
	for _, d := range perLayer {
		if _, ok := e2e[d.e2e]; !ok {
			t.Errorf("%s: moves unknown end-to-end metric %q", d.name, d.e2e)
		}
		if findWorkload(d.on) == nil {
			t.Errorf("%s: moves on unknown workload %q", d.name, d.on)
		}
		if d.notOn != "" && (findWorkload(d.notOn) == nil || d.notOn == d.on) {
			t.Errorf("%s: must not move on %q", d.name, d.notOn)
		}
	}
	for _, w := range workloads {
		total := 0
		for _, s := range w.mix {
			total += s.n
		}
		if total != 1000 {
			t.Errorf("%s: mix sums to %d per mille", w.name, total)
		}
	}
	for _, arg := range spec.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}

func TestBadArgumentsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-dir", t.TempDir()}, // exists: not the benchmark's to remove
	} {
		if code := realMain(args, io.Discard); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
	}
}
