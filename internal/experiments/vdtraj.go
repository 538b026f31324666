package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/netsim"
	"lmbalance/internal/obs"
	"lmbalance/internal/stats"
	"lmbalance/internal/trace"
)

// VDTrajectoryRun is one (f, δ) setting's empirical variation-density
// trajectory.
type VDTrajectoryRun struct {
	F     float64
	Delta int
	// Points is the instantaneous cross-node VD (std/mean of the nodes'
	// loads) per sample, oldest first.
	Points []float64
	// PeakVD is the trajectory's maximum; EarlyVD and LateVD are the
	// means over the first tenth and the last quarter of the samples.
	PeakVD, EarlyVD, LateVD float64
	// Converged reports the §5 shape: the late plateau sits below the
	// early transient.
	Converged bool
}

// VDTrajectoryResult is the §5 convergence check run empirically: the
// paper proves the variation density VD = sqrt(E(l²)−E(l)²)/E(l)
// converges in t; a histogram only ever shows the endpoint, so this
// harness records the whole trajectory. A 16-node message-passing
// network starts maximally imbalanced — a hot producer quarter, everyone
// else consuming — and runs on netsim's virtual clock, sampled every
// Period ticks while balancing runs. For every setting the trajectory
// must decay from its early transient to a lower, stable plateau:
// convergence in t, not just a good final value. The result is a pure
// function of the seed.
type VDTrajectoryResult struct {
	N      int
	Steps  int
	Period int // ticks between samples
	Runs   []VDTrajectoryRun
}

// vdTrajSettings are the (f, δ) points the trajectory is recorded at —
// the paper's baseline (1.2, 2), a laxer trigger, and a wider
// neighborhood for each trigger.
var vdTrajSettings = []struct {
	F     float64
	Delta int
}{
	{1.2, 2},
	{1.5, 2},
	{1.2, 4},
	{1.5, 4},
}

// VDTrajectory records the VD-vs-t trajectory for every setting.
func VDTrajectory(scale Scale, seed uint64) (*VDTrajectoryResult, error) {
	const n = 16
	steps := 8000
	if scale == ScaleFull {
		steps = 40000
	}
	out := &VDTrajectoryResult{N: n, Steps: steps, Period: 100}
	gen, con := hotQuarter(n)
	for _, s := range vdTrajSettings {
		run, err := vdTrajRun(netsim.Config{
			N: n, Delta: s.Delta, F: s.F, Steps: steps,
			GenP: gen, ConP: con, Seed: seed,
		}, out.Period)
		if err != nil {
			return nil, fmt.Errorf("vdtraj (f=%g δ=%d): %w", s.F, s.Delta, err)
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// vdTrajRun steps one world to its end, takes the cross-node VD of the
// nodes' loads every period ticks, and classifies the trajectory's shape.
func vdTrajRun(cfg netsim.Config, period int) (VDTrajectoryRun, error) {
	run := VDTrajectoryRun{F: cfg.F, Delta: cfg.Delta}
	w, err := netsim.New(cfg)
	if err != nil {
		return run, err
	}
	for tick := 1; !w.Done(); tick++ {
		if err := w.Tick(); err != nil {
			return run, err
		}
		if tick%period != 0 {
			continue
		}
		var sum, sumsq float64
		for _, nd := range w.Nodes() {
			l := float64(nd.Load())
			sum, sumsq = sum+l, sumsq+l*l
		}
		_, _, vd := obs.Moments(float64(cfg.N), sum, sumsq)
		run.Points = append(run.Points, vd)
	}
	if res := w.Result(); !res.Conserved() {
		return run, fmt.Errorf("packet conservation violated")
	}
	if len(run.Points) < 8 {
		return run, fmt.Errorf("only %d trajectory samples; run too short to judge convergence", len(run.Points))
	}
	for _, v := range run.Points {
		run.PeakVD = max(run.PeakVD, v)
	}
	run.EarlyVD = stats.MeanOf(run.Points[:len(run.Points)/10+1])
	run.LateVD = stats.MeanOf(run.Points[len(run.Points)*3/4:])
	run.Converged = run.LateVD < run.EarlyVD
	return run, nil
}

// ConvergedCount returns how many settings show the convergent shape.
func (r *VDTrajectoryResult) ConvergedCount() int {
	c := 0
	for _, run := range r.Runs {
		if run.Converged {
			c++
		}
	}
	return c
}

// Render writes the trajectory table and one sparkline per setting.
func (r *VDTrajectoryResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf(
		"Variation density trajectory (n=%d, %d steps, hot quarter): §5 convergence in t",
		r.N, r.Steps)); err != nil {
		return err
	}
	tb := trace.NewTable(fmt.Sprintf("empirical VD over time on netsim's virtual clock (sampled every %d ticks)", r.Period),
		"f", "δ", "samples", "peak VD", "early VD", "late VD", "converged")
	for _, run := range r.Runs {
		tb.AddRow(run.F, run.Delta, len(run.Points),
			run.PeakVD, run.EarlyVD, run.LateVD, run.Converged)
	}
	if err := tb.WriteText(w); err != nil {
		return err
	}
	for _, run := range r.Runs {
		if _, err := fmt.Fprintf(w, "f=%-4g δ=%d  %s\n", run.F, run.Delta,
			trace.Sparkline(run.Points)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d/%d settings decay from their early transient to a lower late plateau:\nthe variation density converges in t, as §5 proves — visible only as a\ntrajectory, never as a point-in-time scrape.\n",
		r.ConvergedCount(), len(r.Runs))
	return err
}
