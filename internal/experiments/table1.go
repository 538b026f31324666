package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/core"
	"lmbalance/internal/sim"
	"lmbalance/internal/trace"
)

// Table1Cs are the borrow-capacity values of the paper's Table 1.
var Table1Cs = []int{4, 8, 16, 32}

// Table1Result holds the borrowing statistics for each C, averaged per
// run and per processor — the paper's Table 1 magnitudes (e.g. "total
// borrow 107.777" at C=4) are per-processor averages over the 100 runs.
type Table1Result struct {
	Cs      []int
	Metrics []core.ScaledMetrics // parallel to Cs; per processor per run
	Runs    int
}

// Table1 reproduces the paper's Table 1: the borrowing statistics of the
// §7 benchmark workload (64 processors, 500 steps, f=1.1, δ=1) for
// C ∈ {4, 8, 16, 32}.
func Table1(scale Scale, seed uint64) (*Table1Result, error) {
	out := &Table1Result{Cs: Table1Cs, Runs: scale.runs()}
	for i, c := range Table1Cs {
		params := core.Params{F: 1.1, Delta: 1, C: c}
		cfg := sim.LMConfig(PaperN, PaperSteps, out.Runs, params, paperPhases, seed+uint64(i))
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("table1 C=%d: %w", c, err)
		}
		out.Metrics = append(out.Metrics, res.CoreMetrics.Scale(out.Runs*PaperN))
	}
	return out, nil
}

// Render writes the table in the paper's orientation: one column per C,
// one row per counter.
func (r *Table1Result) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Table 1: borrowing statistics (f=1.1, δ=1, %d runs, per-processor per-run averages)", r.Runs)); err != nil {
		return err
	}
	headers := []string{"counter"}
	for _, c := range r.Cs {
		headers = append(headers, fmt.Sprintf("C=%d", c))
	}
	tb := trace.NewTable("", headers...)
	addRow := func(name string, pick func(core.ScaledMetrics) float64) {
		row := make([]any, 0, len(headers))
		row = append(row, name)
		for _, m := range r.Metrics {
			row = append(row, pick(m))
		}
		tb.AddRow(row...)
	}
	addRow("total borrow", func(m core.ScaledMetrics) float64 { return m.TotalBorrow })
	addRow("remote borrow", func(m core.ScaledMetrics) float64 { return m.RemoteBorrow })
	addRow("borrow fail", func(m core.ScaledMetrics) float64 { return m.BorrowFail })
	addRow("decrease sim", func(m core.ScaledMetrics) float64 { return m.DecreaseSim })
	addRow("(balance ops)", func(m core.ScaledMetrics) float64 { return m.BalanceOps })
	addRow("(migrations)", func(m core.ScaledMetrics) float64 { return m.Migrations })
	return tb.WriteText(w)
}
