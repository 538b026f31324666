package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/baseline"
	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/topology"
	"lmbalance/internal/trace"
)

// BaselineRow is the end-of-run quality/cost summary of one algorithm.
type BaselineRow struct {
	Name string
	// MeanSpreadTail is the mean (max−min) load over the last quarter of
	// the run — balance quality (lower is better).
	MeanSpreadTail float64
	// FinalVD is the variation density of final loads pooled over runs.
	FinalVD float64
	// BalanceOps and Migrations are per-run averages — cost.
	BalanceOps float64
	Migrations float64
}

// BaselineComparisonResult compares the Lüling–Monien algorithm against
// the baselines of internal/baseline under the paper's §7 workload — the
// extension experiment XBASE of DESIGN.md. It demonstrates, among other
// things, the §5 claim that the random-scatter strawman has equal expected
// loads but enormous variation.
type BaselineComparisonResult struct {
	Rows  []BaselineRow
	N     int
	Steps int
	Runs  int
}

// BaselineComparison runs every algorithm under identical workloads.
func BaselineComparison(scale Scale, seed uint64) (*BaselineComparisonResult, error) {
	out := &BaselineComparisonResult{N: PaperN, Steps: PaperSteps, Runs: scale.runs()}
	type algo struct {
		name string
		mk   func(r *rng.RNG) (sim.Balancer, error)
	}
	torus := topology.Torus2D(8, 8)
	algos := []algo{
		{"LM(f=1.1,δ=1)", func(r *rng.RNG) (sim.Balancer, error) {
			return core.NewSystem(PaperN, PaperParams(1.1, 1), topology.NewGlobal(PaperN), r)
		}},
		{"LM(f=1.1,δ=4)", func(r *rng.RNG) (sim.Balancer, error) {
			return core.NewSystem(PaperN, PaperParams(1.1, 4), topology.NewGlobal(PaperN), r)
		}},
		{"nobalance", func(r *rng.RNG) (sim.Balancer, error) {
			return baseline.NewNoBalance(PaperN), nil
		}},
		{"randomscatter", func(r *rng.RNG) (sim.Balancer, error) {
			return baseline.NewRandomScatter(PaperN, r), nil
		}},
		{"rsu", func(r *rng.RNG) (sim.Balancer, error) {
			return baseline.NewRSU(PaperN, 1, r), nil
		}},
		{"diffusion(torus)", func(r *rng.RNG) (sim.Balancer, error) {
			return baseline.NewDiffusion(torus, 1, 0)
		}},
		{"gradient(torus)", func(r *rng.RNG) (sim.Balancer, error) {
			return baseline.NewGradient(torus, 2, 8, 1)
		}},
	}
	for i, a := range algos {
		// ops[run] and mig[run] are one run's cost counters, read at its
		// last step; each run writes only its own slot.
		ops, mig := make([]int64, out.Runs), make([]int64, out.Runs)
		cfg := sim.Config{
			N: PaperN, Steps: PaperSteps, Runs: out.Runs, Seed: seed + uint64(i),
			NewBalancer: func(run int, r *rng.RNG) (sim.Balancer, error) { return a.mk(r) },
			NewPattern:  paperPhases,
			Observe: func(run, t int, bal sim.Balancer) {
				if t < PaperSteps-1 {
					return
				}
				switch b := bal.(type) {
				case *core.System:
					m := b.Metrics()
					ops[run], mig[run] = m.BalanceOps, m.Migrations
				case baseline.Algorithm:
					ops[run], mig[run] = b.BalanceOps(), b.Migrations()
				}
			},
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", a.name, err)
		}
		var opsSum, migSum int64
		for run := range ops {
			opsSum += ops[run]
			migSum += mig[run]
		}
		out.Rows = append(out.Rows, BaselineRow{
			Name: a.name, MeanSpreadTail: TailSpread(res), FinalVD: res.FinalLoadVD,
			BalanceOps: ratio(opsSum, int64(out.Runs)), Migrations: ratio(migSum, int64(out.Runs)),
		})
	}
	return out, nil
}

// Render writes the comparison table.
func (r *BaselineComparisonResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Extension: algorithm comparison under the §7 workload (%d procs, %d steps, %d runs)", r.N, r.Steps, r.Runs)); err != nil {
		return err
	}
	tb := trace.NewTable("balance quality vs cost",
		"algorithm", "spread(tail)", "final VD", "balance ops/run", "migrations/run")
	for _, row := range r.Rows {
		tb.AddRow(row.Name, row.MeanSpreadTail, row.FinalVD, row.BalanceOps, row.Migrations)
	}
	return tb.WriteText(w)
}
