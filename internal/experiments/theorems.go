package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/core"
	"lmbalance/internal/sim"
	"lmbalance/internal/theory"
	"lmbalance/internal/trace"
	"lmbalance/internal/workload"
)

// TheoremCase is one (n, δ, f) configuration of the §3 validation.
type TheoremCase struct {
	N     int
	Delta int
	F     float64
}

// TheoremCases are the configurations checked against Theorems 1–3.
var TheoremCases = []TheoremCase{
	{16, 1, 1.1}, {64, 1, 1.1}, {64, 1, 1.8},
	{64, 2, 1.2}, {64, 4, 1.1}, {64, 4, 1.8}, {256, 2, 1.5},
}

// TheoremRow is the measured vs. predicted ratio for one case.
type TheoremRow struct {
	Case TheoremCase
	// MeasuredRatio is E(l₁)/E(lᵢ) from the packet-level simulation of
	// the one-processor-generator model (sampled at the final step, i.e.
	// between balancing operations).
	MeasuredRatio float64
	// Fix is FIX(n,δ,f) — the Theorem 1 bound at balancing instants.
	Fix float64
	// Limit is δ/(δ+1−f) — the Theorem 2 network-size-independent bound.
	Limit float64
	// SampledBound is f·FIX: between balancing operations the generator's
	// load exceeds its post-balance value by at most the factor f.
	SampledBound float64
}

// TheoremCheckResult validates Theorems 1–3 end to end: the packet-level
// simulator running the real algorithm must respect the closed-form
// bounds.
type TheoremCheckResult struct {
	Rows  []TheoremRow
	Steps int
	Runs  int
}

// TheoremCheck runs the one-processor-generator model on the real
// (packet-level) algorithm and compares the measured expected-load ratio
// against FIX(n,δ,f), its n→∞ limit, and the between-balances bound f·FIX.
func TheoremCheck(scale Scale, seed uint64) (*TheoremCheckResult, error) {
	out := &TheoremCheckResult{Steps: 4000, Runs: scale.runs()}
	for i, tc := range TheoremCases {
		cfg := sim.LMConfig(tc.N, out.Steps, out.Runs, core.Params{F: tc.F, Delta: tc.Delta, C: 4}, fixed(workload.OneProducer{}), seed+uint64(i))
		cfg.SnapshotAt = []int{out.Steps - 1}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("theoremcheck n=%d δ=%d f=%g: %w", tc.N, tc.Delta, tc.F, err)
		}
		row := TheoremRow{
			Case:          tc,
			MeasuredRatio: producerRatio(res, out.Steps-1),
			Fix:           theory.FIX(tc.N, tc.Delta, tc.F),
			Limit:         theory.FixLimit(tc.Delta, tc.F),
			SampledBound:  tc.F * theory.FIX(tc.N, tc.Delta, tc.F),
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render writes the comparison table.
func (r *TheoremCheckResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Theorems 1-3 validation: one-processor-generator model, %d steps, %d runs", r.Steps, r.Runs)); err != nil {
		return err
	}
	tb := trace.NewTable("measured E(l1)/E(li) vs closed forms",
		"n", "δ", "f", "measured", "FIX(n,δ,f)", "f·FIX (bound)", "δ/(δ+1−f) (n→∞)")
	for _, row := range r.Rows {
		tb.AddRow(row.Case.N, row.Case.Delta, row.Case.F,
			row.MeasuredRatio, row.Fix, row.SampledBound, row.Limit)
	}
	return tb.WriteText(w)
}
