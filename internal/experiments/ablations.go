package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/topology"
	"lmbalance/internal/trace"
)

// AblationRow is the quality/cost summary of one variant.
type AblationRow struct {
	Name           string
	MeanSpreadTail float64
	BalanceOps     float64
	Migrations     float64
}

// CSweepRow is one borrow-capacity measurement.
type CSweepRow struct {
	C              int
	MeanSpreadTail float64
	RemoteBorrow   float64 // per processor per run
	DecreaseSim    float64 // per processor per run
}

// AblationsResult collects the design-choice studies of DESIGN.md §6:
// the (δ, f) tradeoff sweep, locality-restricted candidate selection,
// the initiator-only trigger-reset variant, and the borrow-capacity
// sweep isolating the §7 claim that "a larger parameter C increases the
// load imbalance … but decreases the number of operations to borrow load
// from remote processors".
type AblationsResult struct {
	ParamSweep []AblationRow
	Topology   []AblationRow
	Reset      []AblationRow
	CSweep     []CSweepRow
	Runs       int
}

// Ablations runs all ablation studies under the paper's §7 workload.
func Ablations(scale Scale, seed uint64) (*AblationsResult, error) {
	out := &AblationsResult{Runs: scale.runs()}

	// run simulates one variant — candidate selection sel, or the paper's
	// global selection when sel is nil — at the next seed, and returns
	// its row with the simulation behind it.
	run := func(name string, params core.Params, sel func() topology.Selector) (AblationRow, *sim.Result, error) {
		cfg := sim.LMConfig(PaperN, PaperSteps, out.Runs, params, paperPhases, seed)
		seed++
		if sel != nil {
			cfg.NewBalancer = func(_ int, r *rng.RNG) (sim.Balancer, error) {
				return core.NewSystem(PaperN, params, sel(), r)
			}
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return AblationRow{}, nil, fmt.Errorf("ablation %s: %w", name, err)
		}
		m := res.CoreMetrics.Scale(out.Runs)
		return AblationRow{Name: name, MeanSpreadTail: TailSpread(res), BalanceOps: m.BalanceOps, Migrations: m.Migrations}, res, nil
	}

	// 1. The central (δ, f) tradeoff sweep.
	for _, delta := range []int{1, 2, 4, 8} {
		for _, f := range []float64{1.1, 1.2, 1.4, 1.8} {
			p := core.Params{F: f, Delta: delta, C: 4}
			if p.Validate() != nil {
				continue
			}
			r, _, err := run(fmt.Sprintf("δ=%d f=%g", delta, f), p, nil)
			if err != nil {
				return nil, err
			}
			out.ParamSweep = append(out.ParamSweep, r)
		}
	}

	// 2. Locality-restricted candidate selection (the paper's "further
	// research" item): δ=4 so each neighborhood offers enough candidates.
	p4 := core.Params{F: 1.1, Delta: 4, C: 4}
	topos := []struct {
		name string
		mk   func() topology.Selector
	}{
		{"global (paper)", nil},
		{"ring64", func() topology.Selector { return topology.NewNeighborhood(topology.Ring(PaperN)) }},
		{"torus8x8", func() topology.Selector { return topology.NewNeighborhood(topology.Torus2D(8, 8)) }},
		{"hypercube6", func() topology.Selector { return topology.NewNeighborhood(topology.Hypercube(6)) }},
		{"debruijn6", func() topology.Selector { return topology.NewNeighborhood(topology.DeBruijn(6)) }},
	}
	for _, tp := range topos {
		r, _, err := run(tp.name, p4, tp.mk)
		if err != nil {
			return nil, err
		}
		out.Topology = append(out.Topology, r)
	}

	// 3. Borrow capacity sweep (wider than Table 1, adding the quality
	// side of the tradeoff).
	for _, c := range []int{1, 2, 4, 8, 16, 32, 64} {
		r, res, err := run(fmt.Sprintf("C=%d", c), core.Params{F: 1.1, Delta: 1, C: c}, nil)
		if err != nil {
			return nil, err
		}
		m := res.CoreMetrics.Scale(out.Runs * PaperN)
		out.CSweep = append(out.CSweep, CSweepRow{C: c, MeanSpreadTail: r.MeanSpreadTail, RemoteBorrow: m.RemoteBorrow, DecreaseSim: m.DecreaseSim})
	}

	// 4. Trigger-base reset discipline.
	for _, v := range []struct {
		name string
		p    core.Params
	}{
		{"reset all participants (default)", core.Params{F: 1.1, Delta: 1, C: 4}},
		{"reset initiator only (appendix literal)", core.Params{F: 1.1, Delta: 1, C: 4, InitiatorOnlyReset: true}},
	} {
		r, _, err := run(v.name, v.p, nil)
		if err != nil {
			return nil, err
		}
		out.Reset = append(out.Reset, r)
	}
	return out, nil
}

// Render writes the three ablation tables.
func (r *AblationsResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Ablations (§7 workload, %d runs)", r.Runs)); err != nil {
		return err
	}
	emit := func(title string, rows []AblationRow) error {
		tb := trace.NewTable(title, "variant", "spread(tail)", "balance ops/run", "migrations/run")
		for _, row := range rows {
			tb.AddRow(row.Name, row.MeanSpreadTail, row.BalanceOps, row.Migrations)
		}
		if err := tb.WriteText(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	if err := emit("quality/cost tradeoff over (δ, f)", r.ParamSweep); err != nil {
		return err
	}
	if err := emit("candidate selection locality (δ=4, f=1.1)", r.Topology); err != nil {
		return err
	}
	if err := emit("trigger-base reset discipline (δ=1, f=1.1)", r.Reset); err != nil {
		return err
	}
	ct := trace.NewTable("borrow capacity C: quality vs settlement communication (f=1.1, δ=1; per-processor per-run)",
		"C", "spread(tail)", "remote borrow", "decrease sim")
	for _, row := range r.CSweep {
		ct.AddRow(row.C, row.MeanSpreadTail, row.RemoteBorrow, row.DecreaseSim)
	}
	return ct.WriteText(w)
}
