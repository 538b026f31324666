package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/theory"
	"lmbalance/internal/trace"
	"lmbalance/internal/workload"
)

// AdversaryRow is one candidate workload's outcome.
type AdversaryRow struct {
	Workload string
	// WorstRatio is max over processor pairs (i,j) of
	// E(l_i) / (E(l_j) + C) at the final step — the quantity Theorem 4
	// bounds by f²·δ/(δ+1−f).
	WorstRatio float64
}

// AdversaryResult is a randomized search for workloads that violate the
// Theorem 4 guarantee: many random phase/hotspot/burst workloads are
// thrown at the algorithm and the worst observed pairwise expected-load
// ratio is compared against the bound. The paper claims the guarantee is
// workload-independent; this harness tries to falsify that.
type AdversaryResult struct {
	Rows  []AdversaryRow
	Bound float64
	N     int
	Steps int
	Runs  int
}

// Worst returns the largest ratio found across all workloads.
func (r *AdversaryResult) Worst() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		if row.WorstRatio > worst {
			worst = row.WorstRatio
		}
	}
	return worst
}

// Adversary runs the search with the default parameters (f=1.1, δ=1,
// C=4); the bound is f²·δ/(δ+1−f) ≈ 1.344.
func Adversary(scale Scale, seed uint64) (*AdversaryResult, error) {
	const n = 32
	const steps = 300
	params := core.DefaultParams()
	out := &AdversaryResult{
		Bound: theory.Theorem4Bound(params.Delta, params.F),
		N:     n, Steps: steps, Runs: scale.runs(),
	}
	candidates := 8
	if scale == ScaleFull {
		candidates = 24
	}
	master := rng.New(seed)
	for k := 0; k < candidates; k++ {
		name, mk := randomWorkload(n, steps, master)
		cfg := sim.LMConfig(n, steps, out.Runs, params, mk, seed+uint64(1000+k))
		cfg.SnapshotAt = []int{steps - 1}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("adversary %s: %w", name, err)
		}
		minE, maxE := expectedRange(res, steps-1)
		out.Rows = append(out.Rows, AdversaryRow{
			Workload:   name,
			WorstRatio: maxE / (minE + float64(params.C)),
		})
	}
	return out, nil
}

// randomWorkload draws one adversarial workload family with random
// parameters.
func randomWorkload(n, steps int, r *rng.RNG) (string, func(int, *rng.RNG) (workload.Pattern, error)) {
	switch r.Intn(4) {
	case 0:
		hot := 1 + r.Intn(n/4)
		g := r.FloatRange(0.5, 1.0)
		c := r.FloatRange(0.0, 0.5)
		p := workload.Hotspot{Hot: hot, GenP: g, ConP: c}
		return p.Name(), fixed(p)
	case 1:
		b := workload.Burst{
			BurstLen: 5 + r.Intn(60), DrainLen: 5 + r.Intn(60),
			HighG: r.FloatRange(0.5, 1), HighC: r.FloatRange(0.5, 1),
		}
		return b.Name(), fixed(b)
	case 2:
		bounds := workload.PhaseBounds{
			GLow: r.FloatRange(0, 0.4), GHigh: r.FloatRange(0.6, 1),
			CLow: r.FloatRange(0, 0.3), CHigh: r.FloatRange(0.4, 0.9),
			LenLow: 10 + r.Intn(40), LenHigh: 60 + r.Intn(steps),
			Horizon: steps,
		}
		name := fmt.Sprintf("phases(g<%0.2f,c<%0.2f,len<%d)", bounds.GHigh, bounds.CHigh, bounds.LenHigh)
		return name, func(run int, rr *rng.RNG) (workload.Pattern, error) {
			return workload.NewPhases(n, bounds, rr)
		}
	default:
		u := workload.Uniform{GenP: r.FloatRange(0.3, 0.9), ConP: r.FloatRange(0.1, 0.7)}
		return u.Name(), fixed(u)
	}
}

// Render writes the adversary table.
func (r *AdversaryResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Adversarial search against Theorem 4 (%d workloads, %d runs each, bound %.3f)", len(r.Rows), r.Runs, r.Bound)); err != nil {
		return err
	}
	tb := trace.NewTable("worst pairwise E(l_i)/(E(l_j)+C) per workload",
		"workload", "worst ratio", "bound holds")
	for _, row := range r.Rows {
		tb.AddRow(row.Workload, row.WorstRatio, row.WorstRatio <= r.Bound)
	}
	if err := tb.WriteText(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nworst over all workloads: %.4f (bound %.4f)\n", r.Worst(), r.Bound)
	return err
}
