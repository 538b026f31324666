package experiments

import (
	"fmt"
	"io"
	"math"

	"lmbalance/internal/theory"
	"lmbalance/internal/trace"
)

// Fig6Combos are the parameter combinations plotted in Fig. 6:
// δ ∈ {1,2,4}, f ∈ {1.1,1.2}.
var Fig6Combos = []DeltaF{
	{1, 1.1}, {2, 1.1}, {4, 1.1},
	{1, 1.2}, {2, 1.2}, {4, 1.2},
}

// Fig6Ns are the processor counts of Fig. 6.
var Fig6Ns = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 25, 30, 35}

// Fig6Steps is the maximum number of balancing steps of Fig. 6.
const Fig6Steps = 150

// Fig6Result holds the variation density surface: VD[combo][nIdx][step].
type Fig6Result struct {
	Combos []DeltaF
	Ns     []int
	Steps  int
	// VD[c][i][t] is the variation density for Combos[c], Ns[i] after
	// t+1 balancing steps, computed by the exact moment recursion
	// (internal/theory/moments.go). nil marks infeasible cells (δ > n−1).
	VD [][][]float64
	// MCDeviation is the largest |exact − MonteCarlo| observed on the
	// cross-check cell (the largest n, first combo), a guard against
	// recursion regressions.
	MCDeviation float64
}

// Fig6 reproduces the paper's Fig. 6: the variation density of a
// non-generating processor's load in the one-processor-generator model,
// over δ ∈ {1,2,4}, f ∈ {1.1,1.2}, n ∈ {2..10,15..35}, up to 150 steps.
// The curves are exact (moment recursion); scale only controls the Monte
// Carlo cross-check effort.
func Fig6(scale Scale, seed uint64) (*Fig6Result, error) {
	res := &Fig6Result{Combos: Fig6Combos, Ns: Fig6Ns, Steps: Fig6Steps}
	res.VD = make([][][]float64, len(Fig6Combos))
	for c, combo := range Fig6Combos {
		res.VD[c] = make([][]float64, len(Fig6Ns))
		for i, n := range Fig6Ns {
			if combo.Delta > n-1 {
				// δ candidates are impossible below n = δ+1; the paper's
				// plot starts each curve at the first feasible n.
				res.VD[c][i] = nil
				continue
			}
			cfg := theory.VDConfig{
				N: n, Delta: combo.Delta, F: combo.F,
				Steps: Fig6Steps, Mode: theory.VDTrue,
			}
			mom, err := theory.VDExactMoments(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig6 δ=%d f=%g n=%d: %w", combo.Delta, combo.F, n, err)
			}
			res.VD[c][i] = mom.VD
		}
	}
	// Monte Carlo cross-check on one representative cell.
	checkCfg := theory.VDConfig{
		N: Fig6Ns[len(Fig6Ns)-1], Delta: Fig6Combos[0].Delta, F: Fig6Combos[0].F,
		Steps: Fig6Steps, Mode: theory.VDTrue,
	}
	mc, err := theory.VDMonteCarlo(checkCfg, scale.vdRuns(), seed)
	if err != nil {
		return nil, err
	}
	exact := res.VD[0][len(Fig6Ns)-1]
	for t := range mc {
		if d := math.Abs(mc[t] - exact[t]); d > res.MCDeviation {
			res.MCDeviation = d
		}
	}
	return res, nil
}

// Final returns the VD after the last step for combo index c and
// processor-count index i, or 0 when infeasible.
func (r *Fig6Result) Final(c, i int) float64 {
	if r.VD[c][i] == nil {
		return 0
	}
	return r.VD[c][i][r.Steps-1]
}

// Render writes two tables: VD(150 steps) as a function of n per (δ,f),
// and the VD-vs-steps curve for the largest n.
func (r *Fig6Result) Render(w io.Writer) error {
	if err := header(w, "Figure 6: variation density (one-processor-generator model, exact)"); err != nil {
		return err
	}
	headers := []string{"n"}
	for _, c := range r.Combos {
		headers = append(headers, fmt.Sprintf("δ=%d,f=%g", c.Delta, c.F))
	}
	t1 := trace.NewTable(fmt.Sprintf("VD after %d balancing steps", r.Steps), headers...)
	for i, n := range r.Ns {
		row := make([]any, 0, len(headers))
		row = append(row, n)
		for c := range r.Combos {
			if r.VD[c][i] == nil {
				row = append(row, "-")
			} else {
				row = append(row, r.Final(c, i))
			}
		}
		t1.AddRow(row...)
	}
	if err := t1.WriteText(w); err != nil {
		return err
	}

	lastN := len(r.Ns) - 1
	t2 := trace.NewTable(fmt.Sprintf("VD vs balancing steps at n=%d", r.Ns[lastN]), headers...)
	t2.Headers[0] = "steps"
	for _, step := range []int{1, 2, 5, 10, 20, 40, 80, 150} {
		if step > r.Steps {
			continue
		}
		row := make([]any, 0, len(headers))
		row = append(row, step)
		for c := range r.Combos {
			if r.VD[c][lastN] == nil {
				row = append(row, "-")
			} else {
				row = append(row, r.VD[c][lastN][step-1])
			}
		}
		t2.AddRow(row...)
	}
	if err := t2.WriteText(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nMonte Carlo cross-check max deviation: %.5f\n", r.MCDeviation)
	return err
}
