// Command paperfigs regenerates every table and figure of the paper's
// evaluation (plus the validation and ablation tables listed in
// DESIGN.md) and writes them to stdout or a directory.
//
//	paperfigs               # everything, quick scale (10 runs)
//	paperfigs -full         # the paper's scale (100 runs)
//	paperfigs -only fig6    # one artifact
//	paperfigs -out results  # one text file per artifact
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"lmbalance/internal/experiments"
)

// artifact is one reproducible table/figure.
type artifact struct {
	name string
	desc string
	run  func(scale experiments.Scale, seed uint64) (experiments.Renderer, error)
}

var artifacts = []artifact{
	{"fig6", "variation density curves (§5)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.Fig6(s, seed)
	}},
	{"fig7", "balancing quality over time, δ=1 (§7)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		p, err := experiments.Panels(experiments.Fig7Panels, s, seed)
		return experiments.Quality{PanelsResult: p, Figure: "7"}, err
	}},
	{"fig8", "balancing quality over time, δ=4 (§7)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		p, err := experiments.Panels(experiments.Fig8Panels, s, seed)
		return experiments.Quality{PanelsResult: p, Figure: "8"}, err
	}},
	{"fig9", "per-processor distribution, δ=1 (§7)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		p, err := experiments.Panels(experiments.Fig7Panels, s, seed)
		return experiments.Distribution{PanelsResult: p, Figure: "9"}, err
	}},
	{"fig10", "per-processor distribution, δ=4 (§7)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		p, err := experiments.Panels(experiments.Fig8Panels, s, seed)
		return experiments.Distribution{PanelsResult: p, Figure: "10"}, err
	}},
	{"table1", "borrowing statistics vs C (§7)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.Table1(s, seed)
	}},
	{"theorems", "Theorems 1-3 validation (§3)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.TheoremCheck(s, seed)
	}},
	{"decrease", "Lemma 5/6 decrease-cost bounds vs simulation (§6)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.DecreaseCost(s, seed), nil
	}},
	{"growth", "Lemma 4 reconstruction: distribution cost (§6)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.GrowthCost(s, seed), nil
	}},
	{"scaling", "Theorem 2: network-size independence (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.Scaling(s, seed)
	}},
	{"baselines", "comparison vs baseline algorithms (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.BaselineComparison(s, seed)
	}},
	{"starvation", "processor starvation under a hotspot (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.Starvation(s, seed)
	}},
	{"adversary", "randomized search against Theorem 4 (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.Adversary(s, seed)
	}},
	{"netcost", "message-passing communication cost (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.NetCost(s, seed)
	}},
	{"faults", "fault sensitivity of the trigger protocol (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.FaultSweep(s, seed)
	}},
	{"vdtraj", "variation-density trajectory: §5 convergence in t (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.VDTrajectory(s, seed)
	}},
	{"ablations", "design-choice ablations (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.Ablations(s, seed)
	}},
	{"serve", "serving SLO: sojourn tails, balanced vs no-balancing (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.ServeSLO(s, seed)
	}},
	{"anatomy", "sojourn anatomy: journey decomposition + burn-rate alerts (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.SojournAnatomy(s, seed)
	}},
	{"postmortem", "black-box post-mortem: record, snapshot on alert, replay to a verdict (extension)", func(s experiments.Scale, seed uint64) (experiments.Renderer, error) {
		return experiments.PostMortem(s, seed)
	}},
}

func main() {
	var (
		full = flag.Bool("full", false, "use the paper's statistical effort (100 runs)")
		only = flag.String("only", "", "run a single artifact (comma-separated list); default all")
		out  = flag.String("out", "", "write one text file per artifact into this directory")
		seed = flag.Uint64("seed", 1993, "master seed")
	)
	flag.Parse()
	if err := run(*full, *only, *out, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func run(full bool, only, out string, seed uint64) error {
	scale := experiments.ScaleQuick
	if full {
		scale = experiments.ScaleFull
	}
	selected := map[string]bool{}
	if only != "" {
		for _, name := range strings.Split(only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
		for name := range selected {
			if !known(name) {
				return fmt.Errorf("unknown artifact %q (known: %s)", name, names())
			}
		}
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	for _, a := range artifacts {
		if len(selected) > 0 && !selected[a.name] {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %-9s — %s\n", a.name, a.desc)
		res, err := a.run(scale, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		var w io.Writer = os.Stdout
		var file *os.File
		if out != "" {
			file, err = os.Create(filepath.Join(out, a.name+".txt"))
			if err != nil {
				return err
			}
			w = file
		}
		if err := res.Render(w); err != nil {
			return fmt.Errorf("%s: render: %w", a.name, err)
		}
		if file != nil {
			if err := file.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func known(name string) bool {
	for _, a := range artifacts {
		if a.name == name {
			return true
		}
	}
	return false
}

func names() string {
	out := make([]string, len(artifacts))
	for i, a := range artifacts {
		out[i] = a.name
	}
	return strings.Join(out, ", ")
}
