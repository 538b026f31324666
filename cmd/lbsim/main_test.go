package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lmbalance/internal/stats"
)

func opts(n, steps, runs int, algo, topo, pattern string) options {
	return options{
		n: n, steps: steps, runs: runs, seed: 1,
		f: 1.1, delta: 1, c: 4,
		algo: algo, topo: topo, pattern: pattern, every: 25,
	}
}

func TestRunDefaults(t *testing.T) {
	if err := run(opts(16, 50, 2, "lm", "global", "paper")); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"lm", "nobalance", "scatter", "rsu", "diffusion", "gradient"} {
		o := opts(16, 30, 1, algo, "global", "uniform")
		o.every = 10
		if err := run(o); err != nil {
			t.Fatalf("algo %s: %v", algo, err)
		}
	}
}

func TestRunAllPatterns(t *testing.T) {
	for _, pat := range []string{"paper", "uniform", "hotspot", "burst", "oneproducer"} {
		o := opts(16, 30, 1, "lm", "global", pat)
		o.every = 10
		if err := run(o); err != nil {
			t.Fatalf("pattern %s: %v", pat, err)
		}
	}
}

func TestRunAllTopologies(t *testing.T) {
	for _, topo := range []string{"global", "ring", "torus", "hypercube", "debruijn"} {
		o := opts(16, 30, 1, "lm", topo, "uniform")
		o.every = 10
		if err := run(o); err != nil {
			t.Fatalf("topology %s: %v", topo, err)
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if err := run(opts(16, 30, 1, "nope", "global", "uniform")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run(opts(16, 30, 1, "lm", "nope", "uniform")); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if err := run(opts(16, 30, 1, "lm", "global", "nope")); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestRunRejectsNonSquareTorus(t *testing.T) {
	if err := run(opts(12, 30, 1, "lm", "torus", "uniform")); err == nil {
		t.Fatal("non-square torus accepted")
	}
	if err := run(opts(12, 30, 1, "lm", "hypercube", "uniform")); err == nil {
		t.Fatal("non-power-of-two hypercube accepted")
	}
}

// TestRunRejectsNonPositiveEvery: the series printer steps by -every, so
// a value below 1 is refused, naming the flag, before anything runs.
func TestRunRejectsNonPositiveEvery(t *testing.T) {
	for _, every := range []int{0, -3} {
		o := opts(8, 10, 1, "lm", "global", "uniform")
		o.every = every
		err := run(o)
		if err == nil || !strings.Contains(err.Error(), "-every") {
			t.Fatalf("-every %d: got %v, want an error naming -every", every, err)
		}
	}
}

// TestSeriesStepsWalkSampledSteps: the series table walks the steps the
// load scan sampled, so an -every the -stats-every stride does not
// divide still prints a row per interval the stride reaches, and a
// stride that divides -every prints exactly its multiples.
func TestSeriesStepsWalkSampledSteps(t *testing.T) {
	for _, c := range []struct {
		steps, stride, every int
		want                 []int
	}{
		{100, 7, 25, []int{27, 55, 76}},
		{100, 1, 25, []int{24, 49, 74, 99}},
		{100, 5, 25, []int{24, 49, 74, 99}},
		{100, 30, 25, []int{29, 59, 89}},
		{10, 20, 25, nil},
	} {
		got := seriesSteps(stats.NewSeriesStride(c.steps, c.stride), c.every)
		if !slices.Equal(got, c.want) {
			t.Errorf("steps %d, stride %d, every %d: rows at %v, want %v", c.steps, c.stride, c.every, got, c.want)
		}
	}
	o := opts(16, 100, 1, "lm", "global", "paper")
	o.statsEvery = 7
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunNetsimWithFaults(t *testing.T) {
	o := opts(16, 200, 1, "netsim", "global", "uniform")
	o.delta = 2
	o.drop, o.delay, o.crash = 0.2, 2, 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunNetsimPatternsAndTopologies(t *testing.T) {
	for _, pat := range []string{"uniform", "hotspot"} {
		o := opts(16, 150, 1, "netsim", "hypercube", pat)
		if err := run(o); err != nil {
			t.Fatalf("pattern %s: %v", pat, err)
		}
	}
}

func TestRunNetsimRejections(t *testing.T) {
	// Fault flags demand the netsim algorithm.
	o := opts(16, 30, 1, "lm", "global", "uniform")
	o.drop = 0.1
	if err := run(o); err == nil {
		t.Fatal("-drop accepted without -algo netsim")
	}
	// Engine-only patterns have no netsim rate mapping.
	if err := run(opts(16, 30, 1, "netsim", "global", "paper")); err == nil {
		t.Fatal("paper pattern accepted by netsim")
	}
	// Bad fault parameters surface netsim's validation.
	o = opts(16, 30, 1, "netsim", "global", "uniform")
	o.drop = 1.5
	if err := run(o); err == nil {
		t.Fatal("drop=1.5 accepted")
	}
	o = opts(16, 30, 1, "netsim", "global", "uniform")
	o.crash = -1
	if err := run(o); err == nil {
		t.Fatal("negative crash count accepted")
	}
	// Workload traces are an engine feature.
	o = opts(16, 30, 1, "netsim", "global", "uniform")
	o.record = "x.csv"
	if err := run(o); err == nil {
		t.Fatal("-record accepted by netsim")
	}
}

func TestRecordAndReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.csv")
	o := opts(8, 40, 1, "lm", "global", "uniform")
	o.record = trace
	if err := run(o); err != nil {
		t.Fatalf("record: %v", err)
	}
	o = opts(8, 40, 2, "lm", "global", "ignored")
	o.replay = trace
	if err := run(o); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Replaying on a smaller machine than the trace addresses must fail.
	o = opts(4, 40, 1, "lm", "global", "ignored")
	o.replay = trace
	if err := run(o); err == nil {
		t.Fatal("undersized replay accepted")
	}
	// Missing file.
	o = opts(8, 40, 1, "lm", "global", "ignored")
	o.replay = filepath.Join(t.TempDir(), "missing.csv")
	if err := run(o); err == nil {
		t.Fatal("missing trace accepted")
	}
}
