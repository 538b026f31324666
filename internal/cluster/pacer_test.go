package cluster

import (
	"testing"
	"time"
)

func TestPaceModeParseAndString(t *testing.T) {
	for _, s := range []string{"off", "fixed"} {
		m, err := ParsePaceMode(s)
		if err != nil {
			t.Fatalf("ParsePaceMode(%q): %v", s, err)
		}
		if m.String() != s {
			t.Fatalf("round trip %q -> %v -> %q", s, m, m.String())
		}
	}
	for _, s := range []string{"bogus", "adaptive"} {
		if _, err := ParsePaceMode(s); err == nil {
			t.Fatalf("unknown mode %q accepted", s)
		}
	}
	if got := PaceMode(99).String(); got != "PaceMode(99)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

func TestPaceConfigValidation(t *testing.T) {
	cfg := Config{ID: 0, N: 2, Delta: 1, F: 1.2, Steps: 1,
		Transport: loopTransports(2)[0], Pace: PaceMode(7)}
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown pace mode accepted")
	}
	for _, mode := range []PaceMode{PaceFixed, PaceOff} {
		cfg.Pace = mode
		if _, err := New(cfg); err != nil {
			t.Fatalf("pace mode %v rejected: %v", mode, err)
		}
	}
}

// TestPaceOffIgnoresMinInitGap runs a colliding loopback cluster with an
// hour-long floor under PaceOff: nothing is deferred and conservation
// holds.
func TestPaceOffIgnoresMinInitGap(t *testing.T) {
	cfg := ClusterConfig{N: 8, Delta: 2, F: 1.1, Steps: 3000, Seed: 11,
		GenP: []float64{0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		ConP: []float64{0.1, 0.1, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4},
		Pace: PaceOff, MinInitGap: time.Hour}
	res := runLoop(t, cfg)
	if eps, steps := res.RateLimited(); eps != 0 || steps != 0 {
		t.Fatalf("PaceOff still deferred (%d episodes, %d steps)", eps, steps)
	}
	if !res.Conserved() || !res.Summary.Conserved() {
		t.Fatal("PaceOff run broke conservation")
	}
}
