package main

import (
	"math"
	"testing"
)

// TestHostReference: a probe takes time, leaves the pipe empty for the
// next one, and a run whose probes took twice the nominal time reports half
// the nominal speed.
func TestHostReference(t *testing.T) {
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	for i := 0; i < 3; i++ {
		d, err := ref.probe()
		if err != nil || d <= 0 {
			t.Fatalf("probe %d: %v, %v", i, d, err)
		}
	}
	slow := []int64{2 * int64(refNominal), 2 * int64(refNominal), 50 * int64(refNominal)}
	if got := hostSpeed(slow); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("hostSpeed = %v, want 0.5: the median probe took twice the nominal time", got)
	}
	if got := hostSpeed(nil); got != 1 {
		t.Errorf("hostSpeed of no probes = %v, want 1", got)
	}
}
