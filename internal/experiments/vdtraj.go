package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/stats"
	"lmbalance/internal/trace"
	"lmbalance/internal/wire"
)

// VDTrajectoryRun is one (f, δ) setting's empirical variation-density
// trajectory, read back off the node's /series endpoint exactly the way
// an operator (or the aggregator) would.
type VDTrajectoryRun struct {
	F     float64
	Delta int
	// Points is the instantaneous cross-node VD (std/mean of the
	// per-node load gauges) per recorder sample, oldest first.
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
// harness records the whole trajectory through the time-series
// recorder. A 16-node loopback cluster starts maximally imbalanced — a
// hot producer quarter, everyone else consuming — and the recorder
// samples the cross-node VD while balancing runs. For every setting the
// trajectory must decay from its early transient to a lower, stable
// plateau: convergence in t, not just a good final value.
type VDTrajectoryResult struct {
	N      int
	Steps  int
	Period time.Duration
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
	out := &VDTrajectoryResult{N: n, Steps: steps, Period: 500 * time.Microsecond}
	gen, con := hotQuarter(n)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	for _, s := range vdTrajSettings {
		reg := obs.NewRegistry()
		lnet := wire.NewLoopback(n)
		transports := make([]wire.Transport, n)
		for j := range transports {
			transports[j] = lnet.Transport(j)
		}
		rec := cluster.NewRecorder(reg, ids, 4096)
		// Serve the registry so the trajectory is consumed through the
		// real /series export, not a private shortcut.
		srv, err := obs.ServeDebug("127.0.0.1:0", reg)
		if err != nil {
			return nil, fmt.Errorf("vdtraj: %w", err)
		}
		rec.Start(out.Period)
		res, err := cluster.RunCluster(cluster.ClusterConfig{
			N: n, Delta: s.Delta, F: s.F, Steps: steps,
			GenP: gen, ConP: con, Seed: seed, Obs: reg,
		}, transports)
		rec.Stop()
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("vdtraj (f=%g δ=%d): %w", s.F, s.Delta, err)
		}
		if !res.Conserved() {
			srv.Close()
			return nil, fmt.Errorf("vdtraj (f=%g δ=%d): packet conservation violated", s.F, s.Delta)
		}
		data, err := fetchSeries(srv.URL())
		srv.Close()
		if err != nil {
			return nil, fmt.Errorf("vdtraj (f=%g δ=%d): %w", s.F, s.Delta, err)
		}
		run, err := vdTrajFromSeries(s.F, s.Delta, data)
		if err != nil {
			return nil, fmt.Errorf("vdtraj (f=%g δ=%d): %w", s.F, s.Delta, err)
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// fetchSeries scrapes one /series document.
func fetchSeries(baseURL string) (obs.SeriesData, error) {
	var data obs.SeriesData
	resp, err := http.Get(baseURL + "/series")
	if err != nil {
		return data, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return data, fmt.Errorf("GET /series: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&data); err != nil {
		return data, fmt.Errorf("GET /series: %w", err)
	}
	return data, nil
}

// vdTrajFromSeries extracts the nodes_vd trajectory from a /series
// document and classifies its shape.
func vdTrajFromSeries(f float64, delta int, data obs.SeriesData) (VDTrajectoryRun, error) {
	run := VDTrajectoryRun{F: f, Delta: delta}
	vdIdx := -1
	for i, c := range data.Columns {
		if c == "nodes_vd" {
			vdIdx = i
		}
	}
	if vdIdx < 0 {
		return run, fmt.Errorf("/series has no nodes_vd column (columns %v)", data.Columns)
	}
	for _, smp := range data.Samples {
		if vdIdx < len(smp.V) {
			run.Points = append(run.Points, smp.V[vdIdx])
		}
	}
	if len(run.Points) < 8 {
		return run, fmt.Errorf("only %d trajectory samples; run too short to judge convergence", len(run.Points))
	}
	for _, v := range run.Points {
		if v > run.PeakVD {
			run.PeakVD = v
		}
	}
	early := run.Points[:len(run.Points)/10+1]
	late := run.Points[len(run.Points)*3/4:]
	run.EarlyVD = stats.MeanOf(early)
	run.LateVD = stats.MeanOf(late)
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
	tb := trace.NewTable(fmt.Sprintf("empirical VD over time via /series (sampled every %v)", r.Period),
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
