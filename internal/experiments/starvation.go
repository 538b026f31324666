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
	"lmbalance/internal/workload"
)

// StarvationRow is one algorithm's starvation measurement.
type StarvationRow struct {
	Name string
	// ZeroFraction is the fraction of processor-steps with zero load —
	// the failure metric for the paper's first application class ("for
	// some applications it is sufficient to balance the workload in a way
	// that every processor has some load at any time", §1).
	ZeroFraction float64
	// WorstProcessor is the highest per-processor zero fraction.
	WorstProcessor float64
}

// StarvationResult measures processor starvation under a bursty hotspot
// workload, where work exists somewhere in the system most of the time
// but enters it unevenly — exactly the situation in which an unbalanced
// system starves workers.
type StarvationResult struct {
	Rows  []StarvationRow
	N     int
	Steps int
	Runs  int
}

// Starvation runs the starvation comparison.
func Starvation(scale Scale, seed uint64) (*StarvationResult, error) {
	const n = 32
	const steps = 400
	out := &StarvationResult{N: n, Steps: steps, Runs: scale.runs()}
	// 4 hot producers generate ≈3.6 packets/step; 32 consumers drain at
	// most 3.2/step — work is plentiful system-wide but enters at four
	// processors only, so starvation measures balancing, not scarcity.
	pattern := workload.Hotspot{Hot: 4, GenP: 0.9, ConP: 0.1}
	type algo struct {
		name string
		mk   func(r *rng.RNG) (sim.Balancer, error)
	}
	algos := []algo{
		{"LM(f=1.1,δ=1)", func(r *rng.RNG) (sim.Balancer, error) {
			return core.NewSystem(n, core.Params{F: 1.1, Delta: 1, C: 4}, topology.NewGlobal(n), r)
		}},
		{"LM(f=1.1,δ=4)", func(r *rng.RNG) (sim.Balancer, error) {
			return core.NewSystem(n, core.Params{F: 1.1, Delta: 4, C: 4}, topology.NewGlobal(n), r)
		}},
		{"nobalance", func(r *rng.RNG) (sim.Balancer, error) {
			return baseline.NewNoBalance(n), nil
		}},
		{"rsu", func(r *rng.RNG) (sim.Balancer, error) {
			return baseline.NewRSU(n, 1, r), nil
		}},
	}
	for i, a := range algos {
		// zeros[run][proc] counts zero-load observations; each run only
		// touches its own slot, so parallel runs do not race.
		zeros := make([][]int64, out.Runs)
		for run := range zeros {
			zeros[run] = make([]int64, n)
		}
		loadBuf := make([][]int, out.Runs)
		cfg := sim.Config{
			N: n, Steps: steps, Runs: out.Runs, Seed: seed + uint64(i),
			NewBalancer: func(run int, r *rng.RNG) (sim.Balancer, error) { return a.mk(r) },
			NewPattern:  fixed(pattern),
			Observe: func(run, t int, bal sim.Balancer) {
				loadBuf[run] = bal.Loads(loadBuf[run])
				for p, v := range loadBuf[run] {
					if v == 0 {
						zeros[run][p]++
					}
				}
			},
		}
		if _, err := sim.Run(cfg); err != nil {
			return nil, fmt.Errorf("starvation %s: %w", a.name, err)
		}
		perProc := make([]int64, n)
		var total int64
		for run := range zeros {
			for p, z := range zeros[run] {
				perProc[p] += z
				total += z
			}
		}
		row := StarvationRow{Name: a.name}
		row.ZeroFraction = float64(total) / float64(int64(n)*int64(steps)*int64(out.Runs))
		for _, z := range perProc {
			f := float64(z) / float64(int64(steps)*int64(out.Runs))
			if f > row.WorstProcessor {
				row.WorstProcessor = f
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render writes the starvation table.
func (r *StarvationResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Extension: processor starvation under a hotspot workload (%d procs, %d steps, %d runs)", r.N, r.Steps, r.Runs)); err != nil {
		return err
	}
	tb := trace.NewTable("fraction of processor-steps with zero load",
		"algorithm", "overall", "worst processor")
	for _, row := range r.Rows {
		tb.AddRow(row.Name, row.ZeroFraction, row.WorstProcessor)
	}
	return tb.WriteText(w)
}
