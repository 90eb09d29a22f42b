package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildGdbvet compiles the gdbvet binary once into a test temp dir.
func buildGdbvet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gdbvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build gdbvet: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/gdbvet -> repo root
}

// TestStandaloneRepoClean is the gate the lint target enforces, run the
// way make lint runs it: the whole repository must be free of unsuppressed
// findings, every suppression justified and used, and within budget.
func TestStandaloneRepoClean(t *testing.T) {
	bin := buildGdbvet(t)
	cmd := exec.Command(bin, "-audit", "-budget", ".gdbvet-budget", "./...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("gdbvet -audit -budget .gdbvet-budget ./... reported findings or failed: %v\n%s", err, out)
	}
}

// TestStandaloneFindsViolations runs the binary over known-bad input and
// expects exit code 2: a dirty fixture with -as mapping it into vfsonly's
// scope, and a clean package checked against a budget that names an
// analyzer the suite does not have — the line a deleted analyzer would
// leave behind in .gdbvet-budget.
func TestStandaloneFindsViolations(t *testing.T) {
	bin := buildGdbvet(t)
	budget := filepath.Join(t.TempDir(), "budget")
	if err := os.WriteFile(budget, []byte("vfsonly 5\ncapdecl 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-as", "gdbm/internal/storage/diskio", "./internal/analysis/vfsonly/testdata/src/diskio"}, "[vfsonly]"},
		{[]string{"-budget", budget, "./internal/report"}, `no analyzer named "capdecl"`},
	} {
		cmd := exec.Command(bin, c.args...)
		cmd.Dir = repoRoot(t)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("gdbvet %v: want exit 2, got %v\n%s", c.args, err, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("gdbvet %v: output lacks %q:\n%s", c.args, c.want, out.String())
		}
	}
}
