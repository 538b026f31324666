package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/sim"
	"lmbalance/internal/stats"
	"lmbalance/internal/trace"
)

// DeltaF is one (δ, f) pair of the paper's figures: a curve family of
// Fig. 6, or a panel of Figs. 7–10 (with C = 4).
type DeltaF struct {
	Delta int
	F     float64
}

// Fig7Panels are the panels of Figures 7 and 9 (δ=1, f ∈ {1.1, 1.8});
// Fig8Panels those of Figures 8 and 10 (δ=4).
var (
	Fig7Panels = []DeltaF{{1, 1.1}, {1, 1.8}}
	Fig8Panels = []DeltaF{{4, 1.1}, {4, 1.8}}
)

// SnapshotSteps are the global time steps (the paper's 1-based axis) at
// which Figures 9 and 10 show the per-processor load distribution.
var SnapshotSteps = []int{50, 200, 400}

// snapshotAt returns SnapshotSteps as the engine's 0-based step indices.
func snapshotAt() []int {
	ts := make([]int, len(SnapshotSteps))
	for i, s := range SnapshotSteps {
		ts[i] = s - 1
	}
	return ts
}

// PanelsResult is one run set of §7 panels — 64 processors, 500 steps,
// the paper's workload — with one simulation per (δ, f). Quality renders
// it as Figure 7 or 8, Distribution as Figure 9 or 10.
type PanelsResult struct {
	Panels  []DeltaF
	Results []*sim.Result // parallel to Panels
	Runs    int
}

// Panels runs the §7 benchmark for each (δ, f) of panels, averaged over
// the runs dictated by scale, and records the per-processor loads at the
// SnapshotSteps.
func Panels(panels []DeltaF, scale Scale, seed uint64) (*PanelsResult, error) {
	out := &PanelsResult{Panels: panels, Runs: scale.runs()}
	for i, p := range panels {
		cfg := sim.LMConfig(PaperN, PaperSteps, out.Runs, PaperParams(p.F, p.Delta), paperPhases, seed+uint64(i))
		cfg.SnapshotAt = snapshotAt()
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("panel δ=%d f=%g: %w", p.Delta, p.F, err)
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}

// Quality is the view of a panel set as Figure 7 (δ=1) or 8 (δ=4):
// avg/min/max processor load per global time step.
type Quality struct {
	*PanelsResult
	Figure string
}

// Render writes one table per panel, sampling the series every 25 steps.
func (r Quality) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Figure %s: balancing quality, %d processors, %d runs", r.Figure, PaperN, r.Runs)); err != nil {
		return err
	}
	for i, p := range r.Panels {
		res := r.Results[i]
		tb := trace.NewTable(
			fmt.Sprintf("δ=%d f=%g C=4: load per time step (mean over runs; min/max ever observed)", p.Delta, p.F),
			"step", "avg", "min", "max", "spread")
		for step := 24; step < PaperSteps; step += 25 {
			tb.AddRow(step+1, res.Avg.At(step).Mean(), res.Min.At(step).Min(), res.Max.At(step).Max(), res.Spread.At(step).Mean())
		}
		if err := tb.WriteText(w); err != nil {
			return err
		}
		const width = 60
		if _, err := fmt.Fprintf(w, "avg    %s\nspread %s\n\n",
			trace.Sparkline(trace.Downsample(res.Avg.Means(), width)),
			trace.Sparkline(trace.Downsample(res.Spread.Means(), width))); err != nil {
			return err
		}
	}
	return nil
}

// Distribution is the view of a panel set as Figure 9 (δ=1) or 10 (δ=4):
// the expected, minimal and maximal load of each processor at the
// SnapshotSteps.
type Distribution struct {
	*PanelsResult
	Figure string
}

// Render writes, per panel, a per-processor table, a summary envelope row
// per snapshot step and a heat row per snapshot step.
func (r Distribution) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Figure %s: per-processor load distribution, %d runs", r.Figure, r.Runs)); err != nil {
		return err
	}
	headers := []string{"proc"}
	for _, s := range SnapshotSteps {
		headers = append(headers, fmt.Sprintf("E@%d", s), fmt.Sprintf("min@%d", s), fmt.Sprintf("max@%d", s))
	}
	for i, p := range r.Panels {
		res := r.Results[i]
		tb := trace.NewTable(fmt.Sprintf("δ=%d f=%g C=4", p.Delta, p.F), headers...)
		for proc := 0; proc < PaperN; proc++ {
			row := []any{proc}
			for _, s := range SnapshotSteps {
				acc := res.Snapshots[s-1][proc]
				row = append(row, acc.Mean(), acc.Min(), acc.Max())
			}
			tb.AddRow(row...)
		}
		if err := tb.WriteText(w); err != nil {
			return err
		}

		// Summary: the spread of expected loads across processors — the
		// visual "height of the band" in the paper's plots.
		sum := trace.NewTable("distribution envelope (across processors)",
			"step", "E(load) min..max", "abs min", "abs max")
		for _, s := range SnapshotSteps {
			var abs stats.Accumulator
			for k := range res.Snapshots[s-1] {
				abs.Merge(&res.Snapshots[s-1][k])
			}
			lo, hi := expectedRange(res, s-1)
			sum.AddRow(s, fmt.Sprintf("%.2f..%.2f", lo, hi), abs.Min(), abs.Max())
		}
		if err := sum.WriteText(w); err != nil {
			return err
		}
		// Heat rows: per-processor expected load, one row per snapshot,
		// scaled over the whole panel so darkening rows show growth and
		// uniform shading shows balance.
		lo, hi := expectedRange(res, snapshotAt()...)
		for _, s := range SnapshotSteps {
			vals := make([]float64, PaperN)
			for k, a := range res.Snapshots[s-1] {
				vals[k] = a.Mean()
			}
			if _, err := fmt.Fprintf(w, "t=%-4d %s\n", s, trace.HeatRow(vals, lo, hi)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// EnvelopeWidth returns max−min of the per-processor expected loads of
// panel i at snapshot step s (1-based paper axis) — the scalar the
// δ-impact claim of Figures 9/10 is judged by.
func (r *PanelsResult) EnvelopeWidth(i, s int) float64 {
	lo, hi := expectedRange(r.Results[i], s-1)
	return hi - lo
}
