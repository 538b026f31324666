// Package experiments contains one harness per table and figure of the
// paper's evaluation, plus the validation tables for the theorems and the
// extension/ablation studies listed in DESIGN.md. Each harness returns
// structured data and can render itself as a text table; cmd/paperfigs
// runs them all and EXPERIMENTS.md records paper-vs-measured.
//
// Every harness takes a Scale so the same code serves the full paper
// reproduction (ScaleFull — 100 runs, as in §7) and fast CI/bench runs
// (ScaleQuick).
package experiments

import (
	"fmt"
	"io"
	"math"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/workload"
)

// Scale selects the statistical effort of a harness.
type Scale int

const (
	// ScaleQuick uses few runs — for tests and benchmarks.
	ScaleQuick Scale = iota
	// ScaleFull uses the paper's effort (100 runs, full sweeps).
	ScaleFull
)

// runs returns the number of repetitions for the scale; full is the
// paper's 100.
func (s Scale) runs() int {
	if s == ScaleFull {
		return 100
	}
	return 10
}

// vdRuns returns Monte Carlo repetitions for variation density curves.
func (s Scale) vdRuns() int {
	if s == ScaleFull {
		return 50000
	}
	return 5000
}

// Renderer is implemented by every experiment result.
type Renderer interface {
	// Render writes the result as human-readable tables.
	Render(w io.Writer) error
}

// PaperN is the processor count of the §7 experiments.
const PaperN = 64

// PaperSteps is the time-step count of the §7 experiments.
const PaperSteps = 500

// PaperParams returns the §7 configuration for a given f and δ (C = 4).
func PaperParams(f float64, delta int) core.Params {
	return core.Params{F: f, Delta: delta, C: 4}
}

// paperPhases builds one run's §7 workload: a fresh random phase plan
// per processor, drawn within the paper's bounds.
func paperPhases(_ int, r *rng.RNG) (workload.Pattern, error) {
	return workload.NewPhases(PaperN, workload.PaperBounds(), r)
}

// fixed is the per-run constructor of a workload that draws no per-run
// plan.
func fixed(p workload.Pattern) func(int, *rng.RNG) (workload.Pattern, error) {
	return func(int, *rng.RNG) (workload.Pattern, error) { return p, nil }
}

// TailSpread returns the mean load spread (max − min) over the last
// quarter of res's steps — the scalar quality number the §7 figures,
// the ablations, the baselines and the scaling sweep compare. Steps the
// series did not sample (Config.StatsEvery) are skipped.
func TailSpread(res *sim.Result) float64 {
	steps := res.Spread.Len()
	sum, cnt := 0.0, 0
	for s := steps * 3 / 4; s < steps; s++ {
		if !res.Spread.Sampled(s) {
			continue
		}
		sum += res.Spread.At(s).Mean()
		cnt++
	}
	return sum / float64(cnt)
}

// producerRatio returns E(l₁)/E(lᵢ) at snapshot step t: processor 0's
// expected load over the mean expected load of the others — the quantity
// Theorems 1–3 bound in the one-processor-generator model.
func producerRatio(res *sim.Result, t int) float64 {
	accs := res.Snapshots[t]
	others := 0.0
	for _, a := range accs[1:] {
		others += a.Mean()
	}
	others /= float64(len(accs) - 1)
	return accs[0].Mean() / others
}

// expectedRange returns the smallest and largest per-processor expected
// load over the snapshot steps ts.
func expectedRange(res *sim.Result, ts ...int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, t := range ts {
		for _, a := range res.Snapshots[t] {
			lo, hi = math.Min(lo, a.Mean()), math.Max(hi, a.Mean())
		}
	}
	return lo, hi
}

// ratio returns num/den, or 0 when den is 0: a cost per completed
// operation or per message, or a speedup.
func ratio[T int64 | float64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// abortFrac returns the fraction of initiated operations that did not
// complete.
func abortFrac(initiated, completed int64) float64 {
	return ratio(initiated-completed, initiated)
}

// hotQuarter is the message-passing experiments' workload: the nodes
// below n/4 produce (generate 0.9, consume 0.1) and the rest drain
// (0.1, 0.3), so balancing traffic never dries up.
func hotQuarter(n int) (gen, con []float64) {
	gen, con = make([]float64, n), make([]float64, n)
	for i := range gen {
		if i < n/4 {
			gen[i], con[i] = 0.9, 0.1
		} else {
			gen[i], con[i] = 0.1, 0.3
		}
	}
	return gen, con
}

// header prints a section banner.
func header(w io.Writer, title string) error {
	_, err := fmt.Fprintf(w, "\n================ %s ================\n\n", title)
	return err
}
