package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runMain runs the benchmark in-process, with dir as its scratch directory,
// and parses its last output line.
func runMain(t *testing.T, dir string, args ...string) resultLine {
	t.Helper()
	var out bytes.Buffer
	args = append(args, "-dir", dir)
	if code := realMain(args, &out); code != 0 {
		t.Fatalf("gdbe2e %v: exit code %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("gdbe2e %v: %+v", args, res)
	}
	return res
}

// TestSmoke runs every workload at the quick sizes, untraced and traced, and
// requires exactly the metrics BENCHMARK.json promises for each mode.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			dir := filepath.Join(t.TempDir(), "scratch")
			res := runMain(t, dir, "-workload", w.name, "-seconds", "0.3", "-quick", "-seed", "3", "-trace", mode.trace)
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s missing or in %q, want %q", w.name, mode.trace, d.name, m.Unit, d.unit)
				}
				if mode.trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
			if mode.trace != "1" {
				if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s: scratch directory %s is still there (%v)", w.name, dir, err)
				}
				continue
			}
			checkSpans(t, &w, dir)
			// The layers a workload bypasses must read zero, and the ones
			// it exists for must not.
			zero := func(names ...string) {
				for _, n := range names {
					if res.Metrics[n].Value != 0 {
						t.Errorf("%s: %s = %v, want 0", w.name, n, res.Metrics[n].Value)
					}
				}
			}
			zero("server.shed_ratio", "server.timeouts", "client.fail_ratio")
			if !w.disk {
				zero("pager.page_reads_per_op", "vfs.reads_per_op", "cache.page.hit_ratio", "kvgraph.node_reads_per_op", "vfs.syncs")
			}
			if w.name == "cold_disk" {
				zero("cache.results.hit_ratio", "cache.adjacency.hit_ratio", "vfs.write_bytes_per_user_byte")
			}
			if w.name == "rw_disk" && res.Metrics["cache.results.hit_ratio"].Value <= 0 {
				t.Errorf("rw_disk never hit the result cache")
			}
		}
	}
}

// checkSpans reads the spans a traced run left in dir and requires what the
// trace claims of them: every operation has one span per stage, in stage
// order; the three staged parts lie inside their parent, one after the
// other; nothing else names a parent; and only the spans file is left.
func checkSpans(t *testing.T, w *workload, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "spans.jsonl" {
		t.Fatalf("%s: scratch directory holds %v (%v), want spans.jsonl alone", w.name, entries, err)
	}
	f, err := os.Open(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byOp := map[int]map[string]span{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("%s: span %q: %v", w.name, sc.Text(), err)
		}
		if sp.Workload != w.name || sp.End < sp.Start || sp.Start < 0 {
			t.Fatalf("%s: malformed span %+v", w.name, sp)
		}
		if byOp[sp.Op] == nil {
			byOp[sp.Op] = map[string]span{}
		}
		if _, dup := byOp[sp.Op][sp.Name]; dup {
			t.Fatalf("%s: operation %d has two %s spans", w.name, sp.Op, sp.Name)
		}
		byOp[sp.Op][sp.Name] = sp
	}
	if len(byOp) != quickSizes.traced {
		t.Fatalf("%s: spans of %d operations, want %d", w.name, len(byOp), quickSizes.traced)
	}
	for op, spans := range byOp {
		stages := []string{"client.roundtrip", "server.handler", "engine.query", "engine.staged", "store.exec", "adj.pin"}
		parts := []string{"gql.parse", "plan.compile", "plan.exec"}
		if kindOf(spans["client.roundtrip"].Kind).write() {
			// A write runs whole in the staged stages: no parts to time.
			stages = []string{"client.roundtrip", "server.handler", "engine.query", "adj.pin"}
			parts = nil
		}
		if len(spans) != len(stages)+len(parts) {
			t.Errorf("%s: operation %d has %d spans, want %d", w.name, op, len(spans), len(stages)+len(parts))
		}
		var prev span
		for _, name := range stages {
			sp, ok := spans[name]
			if !ok || sp.Parent != "" || sp.Start < prev.End {
				t.Errorf("%s: operation %d: stage %s missing, parented or before the end of %s: %+v", w.name, op, name, prev.Name, sp)
			}
			prev = sp
		}
		parent := spans["engine.staged"]
		at := parent.Start
		for _, name := range parts {
			sp, ok := spans[name]
			if !ok || sp.Parent != "engine.staged" || sp.Start < at || sp.End > parent.End {
				t.Errorf("%s: operation %d: %s is not in order inside engine.staged %+v: %+v", w.name, op, name, parent, sp)
			}
			at = sp.End
		}
	}
}

func kindOf(name string) kind {
	for k := kind(0); k < numKinds; k++ {
		if k.String() == name {
			return k
		}
	}
	return numKinds
}
