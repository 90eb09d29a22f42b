package stats

import (
	"fmt"
	"math"
	"testing"

	"gdbm/internal/model"
)

func TestNilStatsDefaults(t *testing.T) {
	var s *Stats
	if got := s.CountNodes(""); got != defaultNodes {
		t.Errorf("nil CountNodes = %v", got)
	}
	if got := s.CountNodes("person"); got != defaultNodes*defaultLabelSel {
		t.Errorf("nil CountNodes(person) = %v", got)
	}
	if got := s.Fanout("", model.Out); got != defaultFanout {
		t.Errorf("nil Fanout = %v", got)
	}
	if got := s.Fanout("knows", model.Both); math.Abs(got-2*defaultFanout*defaultLabelSel) > 1e-9 {
		t.Errorf("nil Fanout(knows, Both) = %v", got)
	}
	if got := s.PropSelectivity("", "rank"); got != defaultPropSel {
		t.Errorf("nil PropSelectivity = %v", got)
	}
}

func TestKMVExactBelowK(t *testing.T) {
	m := NewKMV(16)
	for i := 0; i < 10; i++ {
		m.AddValue(model.Int(int64(i % 5)))
	}
	if got := m.Distinct(); got != 5 {
		t.Errorf("Distinct = %v, want 5 exact", got)
	}
}

func TestKMVEstimateAccuracy(t *testing.T) {
	m := NewKMV(256)
	const n = 50000
	for i := 0; i < n; i++ {
		m.AddValue(model.Str(fmt.Sprintf("v%d", i)))
	}
	got := m.Distinct()
	if got < n*0.8 || got > n*1.2 {
		t.Errorf("Distinct = %v, want within 20%% of %d", got, n)
	}
	// Re-adding the same values must not move the estimate.
	before := m.Distinct()
	for i := 0; i < 1000; i++ {
		m.AddValue(model.Str(fmt.Sprintf("v%d", i)))
	}
	if after := m.Distinct(); after != before {
		t.Errorf("duplicate adds moved the estimate: %v -> %v", before, after)
	}
}
