package sim

import (
	"errors"
	"testing"

	"lmbalance/internal/baseline"
	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
	"lmbalance/internal/workload"
)

func lmTestConfig(n, steps, runs int, seed uint64) Config {
	bounds := workload.PhaseBounds{
		GLow: 0.2, GHigh: 0.8, CLow: 0.1, CHigh: 0.5,
		LenLow: 20, LenHigh: 60, Horizon: steps,
	}
	return LMConfig(n, steps, runs, core.DefaultParams(), func(_ int, r *rng.RNG) (workload.Pattern, error) {
		return workload.NewPhases(n, bounds, r)
	}, seed)
}

func TestConfigValidation(t *testing.T) {
	good := lmTestConfig(8, 50, 2, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.N = 1
	if bad.Validate() == nil {
		t.Fatal("N=1 accepted")
	}
	bad = good
	bad.Steps = 0
	if bad.Validate() == nil {
		t.Fatal("Steps=0 accepted")
	}
	bad = good
	bad.Runs = 0
	if bad.Validate() == nil {
		t.Fatal("Runs=0 accepted")
	}
	bad = good
	bad.NewBalancer = nil
	if bad.Validate() == nil {
		t.Fatal("nil NewBalancer accepted")
	}
	bad = good
	bad.NewPattern = nil
	if bad.Validate() == nil {
		t.Fatal("nil NewPattern accepted")
	}
	bad = good
	bad.SnapshotAt = []int{50}
	if bad.Validate() == nil {
		t.Fatal("out-of-range snapshot accepted")
	}
}

func TestRunBasic(t *testing.T) {
	cfg := lmTestConfig(8, 60, 3, 42)
	cfg.SnapshotAt = []int{10, 59}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 3 {
		t.Fatalf("Runs = %d", res.Runs)
	}
	if res.Avg.Len() != 60 {
		t.Fatalf("series length %d", res.Avg.Len())
	}
	// Per-step: min <= avg <= max must hold for the means of each.
	for step := 0; step < 60; step++ {
		lo := res.Min.At(step).Mean()
		av := res.Avg.At(step).Mean()
		hi := res.Max.At(step).Mean()
		if lo > av+1e-9 || av > hi+1e-9 {
			t.Fatalf("step %d: min %.2f avg %.2f max %.2f out of order", step, lo, av, hi)
		}
	}
	for _, at := range []int{10, 59} {
		accs := res.Snapshots[at]
		if len(accs) != 8 {
			t.Fatalf("snapshot at %d has %d processors", at, len(accs))
		}
		for i := range accs {
			if accs[i].N() != 3 {
				t.Fatalf("snapshot acc %d has %d samples, want 3", i, accs[i].N())
			}
		}
	}
	if res.CoreMetrics.Generated == 0 {
		t.Fatal("no generation recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := lmTestConfig(8, 80, 4, 7)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 80; step++ {
		if a.Avg.At(step).Mean() != b.Avg.At(step).Mean() {
			t.Fatalf("step %d: runs not reproducible", step)
		}
	}
	if a.CoreMetrics != b.CoreMetrics {
		t.Fatalf("metrics not reproducible:\n%+v\n%+v", a.CoreMetrics, b.CoreMetrics)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a, err := Run(lmTestConfig(8, 80, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(lmTestConfig(8, 80, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for step := 0; step < 80; step++ {
		if a.Avg.At(step).Mean() != b.Avg.At(step).Mean() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical series")
	}
}

// TestRunSeedsDoNotAliasAcrossConfigs: under the old additive derivation
// (Seed + run·0x9e3779b97f4a7c15), run r+1 of seed S replayed run r of
// seed S+0x9e3779b97f4a7c15 exactly — two "independent" sweeps whose
// seeds differ by the stride shared every run but one. The hashed
// derivation must make those runs differ.
func TestRunSeedsDoNotAliasAcrossConfigs(t *testing.T) {
	const stride = 0x9e3779b97f4a7c15
	cfgA := lmTestConfig(8, 80, 2, 100)
	cfgB := lmTestConfig(8, 80, 2, 100+stride)
	a := oneRun(cfgA, 1)
	b := oneRun(cfgB, 0)
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	same := a.metrics == b.metrics
	for step := 0; same && step < 80; step++ {
		if a.avg.At(step).Mean() != b.avg.At(step).Mean() {
			same = false
		}
	}
	if same {
		t.Fatal("run 1 of seed S aliases run 0 of seed S+stride")
	}
}

func TestRunWithBaselineTicker(t *testing.T) {
	n := 8
	cfg := Config{
		N: n, Steps: 50, Runs: 2, Seed: 5,
		NewBalancer: func(run int, r *rng.RNG) (Balancer, error) {
			return baseline.NewRSU(n, 1, r), nil
		},
		NewPattern: func(run int, r *rng.RNG) (workload.Pattern, error) {
			return workload.Uniform{GenP: 0.6, ConP: 0.2}, nil
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Avg.At(49).Mean() <= 0 {
		t.Fatal("no load accumulated")
	}
}

func TestRunBalancerError(t *testing.T) {
	cfg := lmTestConfig(8, 10, 2, 1)
	boom := errors.New("boom")
	cfg.NewBalancer = func(run int, r *rng.RNG) (Balancer, error) { return nil, boom }
	if _, err := Run(cfg); !errors.Is(err, boom) {
		t.Fatalf("expected wrapped boom, got %v", err)
	}
}

func TestRunPatternError(t *testing.T) {
	cfg := lmTestConfig(8, 10, 2, 1)
	boom := errors.New("pattern boom")
	cfg.NewPattern = func(run int, r *rng.RNG) (workload.Pattern, error) { return nil, boom }
	if _, err := Run(cfg); !errors.Is(err, boom) {
		t.Fatalf("expected wrapped boom, got %v", err)
	}
}

func TestRunSizeMismatch(t *testing.T) {
	cfg := lmTestConfig(8, 10, 1, 1)
	cfg.NewBalancer = func(run int, r *rng.RNG) (Balancer, error) {
		return core.NewSystem(4, core.DefaultParams(), topology.NewGlobal(4), r)
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("size mismatch not detected")
	}
}

// TestLMBeatsNoBalance: under a hotspot workload the core algorithm must
// produce a dramatically smaller load spread than no balancing — the
// paper's raison d'être, checked end to end through the engine.
func TestLMBeatsNoBalance(t *testing.T) {
	n, steps, runs := 16, 200, 5
	hot := workload.Hotspot{Hot: 2, GenP: 0.9, ConP: 0.3}
	newPattern := func(run int, r *rng.RNG) (workload.Pattern, error) { return hot, nil }

	lm, err := Run(Config{
		N: n, Steps: steps, Runs: runs, Seed: 11,
		NewBalancer: func(run int, r *rng.RNG) (Balancer, error) {
			return core.NewSystem(n, core.DefaultParams(), topology.NewGlobal(n), r)
		},
		NewPattern: newPattern,
	})
	if err != nil {
		t.Fatal(err)
	}
	nob, err := Run(Config{
		N: n, Steps: steps, Runs: runs, Seed: 11,
		NewBalancer: func(run int, r *rng.RNG) (Balancer, error) {
			return baseline.NewNoBalance(n), nil
		},
		NewPattern: newPattern,
	})
	if err != nil {
		t.Fatal(err)
	}
	lmSpread := lm.Spread.At(steps - 1).Mean()
	nobSpread := nob.Spread.At(steps - 1).Mean()
	if lmSpread*3 > nobSpread {
		t.Fatalf("LM spread %.1f not clearly better than no-balance %.1f", lmSpread, nobSpread)
	}
}

func TestFinalLoadVD(t *testing.T) {
	res, err := Run(lmTestConfig(8, 100, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoadVD < 0 {
		t.Fatal("negative variation density")
	}
}

func BenchmarkRunLM64(b *testing.B) {
	cfg := LMConfig(64, 500, 1, core.DefaultParams(), func(_ int, r *rng.RNG) (workload.Pattern, error) {
		return workload.NewPhases(64, workload.PaperBounds(), r)
	}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
