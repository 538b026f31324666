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

	"lmbalance/internal/core"
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

// PaperWorkload returns the §7 workload bounds.
func PaperWorkload() workload.PhaseBounds { return workload.PaperBounds() }

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
