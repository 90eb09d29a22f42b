package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

// The checks must be live: a run whose expectations were tampered with
// has to fail, or a passing run would prove nothing.

func TestTamperedAnswerFailsTheRun(t *testing.T) {
	cfg := runConfig{seed: 5, window: 300 * time.Millisecond, quick: true, dir: t.TempDir()}
	if res := runWorkload(context.Background(), findWorkload("point_mem"), cfg); !res.correct {
		t.Fatalf("untampered run failed: %v", res.errs)
	}
	cfg.dir = t.TempDir()
	cfg.tamperOracle = func(o *oracle) {
		// One expected answer of one node, among 300 the window draws
		// from thousands of times.
		o.point[17].sum++
	}
	res := runWorkload(context.Background(), findWorkload("point_mem"), cfg)
	if res.correct || res.failed == 0 {
		t.Fatalf("a wrong expected answer went unnoticed: correct=%v failed=%d", res.correct, res.failed)
	}
}

func TestTamperedWriteFailsTheAudit(t *testing.T) {
	cfg := runConfig{seed: 5, window: 500 * time.Millisecond, quick: true, dir: t.TempDir()}
	if res := runWorkload(context.Background(), findWorkload("rw_disk"), cfg); !res.correct {
		t.Fatalf("untampered run failed: %v", res.errs)
	}
	cfg.dir = t.TempDir()
	tampered := false
	cfg.tamperLedgers = func(leds []ledger) {
		for _, led := range leds {
			for node := range led.hits {
				led.hits[node]++ // claim a value that was never written
				tampered = true
				return
			}
		}
	}
	res := runWorkload(context.Background(), findWorkload("rw_disk"), cfg)
	if !tampered {
		t.Fatal("the window made no set to tamper with")
	}
	if res.correct || !strings.Contains(strings.Join(res.errs, "\n"), "audit") {
		t.Fatalf("a wrong audited write went unnoticed: correct=%v errs=%v", res.correct, res.errs)
	}
}

// TestStagingInvariantsFailTheRun: a traced pass whose stages do not add
// up, or whose outer stage is the shorter one, must not pass as valid.
func TestStagingInvariantsFailTheRun(t *testing.T) {
	valid := func() map[string]float64 {
		return map[string]float64{
			"engine.stage_gap_ratio": 0.05,
			"server.handler_us_p50":  60, "net.self_us_p50": 40,
			"engine.query_us_p50": 50, "server.self_us_p50": -5, // noise within the slack
		}
	}
	if err := stagingValid(valid()); err != nil {
		t.Fatalf("a valid pass was refused: %v", err)
	}
	for name, v := range map[string]float64{
		"engine.stage_gap_ratio": 0.16,
		"net.self_us_p50":        -10,
		"server.self_us_p50":     -8,
	} {
		m := valid()
		m[name] = v
		if stagingValid(m) == nil {
			t.Errorf("%s = %v went unnoticed", name, v)
		}
	}
}

// TestTracedStreamSetsEachNodeOnce: the traced pass replays its stream in
// blocks, stage after stage, so a node set twice would answer a readback
// between the two sets with the later value in every stage but the first.
func TestTracedStreamSetsEachNodeOnce(t *testing.T) {
	w := findWorkload("rw_disk")
	o, err := newOracle(quickSizes.nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		g := newOpGen(w, o, seed, 0, 0)
		g.setOnce = true
		sets := 0
		for i := 0; i < fullSizes(w).traced; i++ {
			if g.next().k == kSet {
				sets++
			}
		}
		if sets == 0 || sets != len(g.led.hits) {
			t.Errorf("seed %d: %d sets on %d nodes", seed, sets, len(g.led.hits))
		}
	}
}
