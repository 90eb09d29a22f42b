package ctxflow_test

import (
	"testing"

	"gdbm/internal/analysis/analysistest"
	"gdbm/internal/analysis/ctxflow"
)

func TestViolations(t *testing.T) {
	analysistest.Run(t, ctxflow.Analyzer, "testdata/src/ctxsrv", "gdbm/internal/server/ctxsrv")
}

func TestKernelViolations(t *testing.T) {
	analysistest.Run(t, ctxflow.Analyzer, "testdata/src/ctxeng", "gdbm/internal/engines/ctxeng")
}

func TestScope(t *testing.T) {
	for _, p := range []string{
		"gdbm/internal/server",
		"gdbm/internal/server/loadgen",
		"gdbm/cmd/gdbserver",
		// Engine packages are in scope for the kernel rule.
		"gdbm/internal/engines/neograph",
		"gdbm/internal/engines/bitmapdb",
		"gdbm/internal/engines/triplestore",
		"gdbm/internal/engines/infinigraph",
	} {
		if !ctxflow.Analyzer.AppliesTo(p) {
			t.Errorf("%s should be in ctxflow scope", p)
		}
	}
	// CLI tools and kernels legitimately start from context.Background.
	for _, p := range []string{
		"gdbm/cmd/gdbbench",
		"gdbm/internal/query/gql",
		"gdbm/internal/algo",
	} {
		if ctxflow.Analyzer.AppliesTo(p) {
			t.Errorf("%s should be out of ctxflow scope", p)
		}
	}
}
