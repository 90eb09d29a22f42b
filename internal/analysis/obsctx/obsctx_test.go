package obsctx_test

import (
	"testing"

	"gdbm/internal/analysis/analysistest"
	"gdbm/internal/analysis/obsctx"
)

func TestViolations(t *testing.T) {
	analysistest.Run(t, obsctx.Analyzer, "testdata/src/spanfix", "gdbm/internal/engines/spanfix")
}

func TestScope(t *testing.T) {
	for _, p := range []string{
		"gdbm/internal/engine",
		"gdbm/internal/engines/neograph",
		"gdbm/internal/kvgraph",
		"gdbm/internal/query/gql",
		"gdbm/cmd/gdbbench",
	} {
		if !obsctx.Analyzer.AppliesTo(p) {
			t.Errorf("%s should be in obsctx scope", p)
		}
	}
	// The obs package implements spans; it is not subject to the check.
	if obsctx.Analyzer.AppliesTo("gdbm/internal/obs") {
		t.Error("internal/obs is out of obsctx scope")
	}
	if obsctx.Analyzer.AppliesTo("gdbm/internal/storage/pager") {
		t.Error("storage packages have no spans and are out of obsctx scope")
	}
}
