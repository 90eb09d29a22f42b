package main

import (
	"strings"
	"testing"
)

func TestRunTablesAndDiff(t *testing.T) {
	if err := run(benchConfig{table: "all", diff: true, seed: 1, dir: t.TempDir(), dirSet: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleTable(t *testing.T) {
	if err := run(benchConfig{table: "7", seed: 1, dir: t.TempDir(), dirSet: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPerfSweepSmall(t *testing.T) {
	cfg := benchConfig{table: "none", perf: true, nodes: 300, degree: 2, seed: 1, dir: t.TempDir(), dirSet: true}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestValidateFlagMatrix pins the fail-fast contract: inconsistent flag
// combinations must be rejected before any directory is created or any
// engine warms up.
func TestValidateFlagMatrix(t *testing.T) {
	cases := []struct {
		name    string
		cfg     benchConfig
		wantErr string // substring; "" means the combo must validate
	}{
		{"defaults", benchConfig{table: "all"}, ""},
		{"perf all engines tempdir", benchConfig{table: "none", perf: true}, ""},
		{"named memory engines no dir", benchConfig{table: "none", perf: true, engines: "neograph,vertexkv"}, ""},
		{"named disk-only engine no dir", benchConfig{table: "none", perf: true, engines: "gstore"}, "-dir"},
		{"named disk-only engine with dir", benchConfig{table: "none", perf: true, engines: "gstore", dir: "/tmp/x", dirSet: true}, ""},
		{"disk-only amid others no dir", benchConfig{table: "none", perf: true, engines: "neograph,gstore"}, "-dir"},
		{"spaces trimmed", benchConfig{table: "none", perf: true, engines: " neograph , gstore ", dir: "/tmp/x", dirSet: true}, ""},
		{"unknown engine", benchConfig{table: "none", perf: true, engines: "mongodb"}, "unknown engine"},
		{"empty engine list", benchConfig{table: "none", perf: true, engines: " , "}, "no engines"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			names, err := validateFlags(tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%+v) = %v, want ok", tc.cfg, err)
				}
				if len(names) == 0 {
					t.Fatalf("validateFlags(%+v) resolved no engines", tc.cfg)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags(%+v) = %v, want error containing %q", tc.cfg, err, tc.wantErr)
			}
		})
	}
}
