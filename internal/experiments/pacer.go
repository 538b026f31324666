package experiments

import (
	"fmt"
	"io"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/trace"
	"lmbalance/internal/wire"
)

// PacerSweepCell is one (transport, n, pace-mode) run of the sweep.
type PacerSweepCell struct {
	Transport string
	N         int
	Mode      cluster.PaceMode
	Initiated int64
	Completed int64
	// Rate is the completion rate Completed/Initiated (1 if nothing was
	// initiated — an idle cluster has no abort pathology).
	Rate     float64
	Messages int64
	// MsgsPerOp is protocol traffic per completed balancing operation —
	// the cost of the abort storms (aborted attempts still burn wire).
	MsgsPerOp float64
	// Episodes/DeferredSteps: deferral episodes and raw deferred trigger
	// firings (see cluster.Stats.RateLimited/RateLimitedSteps).
	Episodes, DeferredSteps int64
	// Backoffs/Recovers are the adaptive controller's gap transitions.
	Backoffs, Recovers int64
	// MeanGap is the mean end-of-run initiation gap across nodes.
	MeanGap time.Duration
	Spread  int
	Elapsed time.Duration
}

// PacerSweepResult compares initiation-pacing policies — off, the fixed
// MinInitGap valve, and the adaptive AIMD controller — across cluster
// sizes and transports on the hot-quarter workload. It is the closing
// measurement of the TCP abort pathology: abortanatomy attributed the
// ≥95% abort fraction at n=16 over sockets to peer_frozen collisions
// (a pacing problem), and this sweep measures what each pacing policy
// buys back, in completion rate and in wire traffic per completed op.
type PacerSweepResult struct {
	Ns       []int
	Steps    int
	Delta    int
	FixedGap time.Duration
	Cells    []PacerSweepCell
}

// pacerModes lists the swept policies in render order.
var pacerModes = []cluster.PaceMode{cluster.PaceOff, cluster.PaceFixed, cluster.PaceAdaptive}

// PacerSweep runs the off/fixed/adaptive × inproc/tcp × n sweep.
//
// The TCP cells need wall-clock runway: the adaptive controller pays a
// first discovery storm (every node's opening trigger collides, that is
// how it measures the collision window) and then amortizes it over the
// paced attempts that follow, so the step counts are sized to let the
// steady state show. At the quick scale that means 40 000 steps: at
// 8 000 the n=16 adaptive cell makes ~18 attempts, nearly all of them
// the storm, and loses the comparison with the free-running rate in
// about half the runs; at 40 000 it completes 0.43–0.71 of its attempts
// to the free-running 0.13. All cells of one n share the same workload
// (same seed, same step count) — only the pacing policy moves.
func PacerSweep(scale Scale, seed uint64) (*PacerSweepResult, error) {
	out := &PacerSweepResult{
		Ns:       []int{4, 8, 16},
		Steps:    40000,
		Delta:    2,
		FixedGap: time.Millisecond,
	}
	if scale == ScaleFull {
		out.Steps = 250000
	}
	for _, n := range out.Ns {
		gen, con := hotQuarter(n)
		for _, tr := range []string{"inproc", "tcp"} {
			for _, mode := range pacerModes {
				transports, err := wire.LocalTransports(n, tr == "inproc")
				if err != nil {
					return nil, fmt.Errorf("pacer %s n=%d: %w", tr, n, err)
				}
				cfg := cluster.ClusterConfig{
					N: n, Delta: out.Delta, F: 1.2, Steps: out.Steps,
					GenP: gen, ConP: con, Seed: seed,
					Pace: mode,
				}
				if mode == cluster.PaceFixed {
					cfg.MinInitGap = out.FixedGap
				}
				res, err := cluster.RunCluster(cfg, transports)
				if err != nil {
					return nil, fmt.Errorf("pacer %s n=%d %s: %w", tr, n, mode, err)
				}
				if !res.Conserved() {
					return nil, fmt.Errorf("pacer %s n=%d %s: packet conservation violated", tr, n, mode)
				}
				cell := PacerSweepCell{
					Transport: tr, N: n, Mode: mode,
					Initiated: res.Initiated(), Completed: res.Completed(),
					Messages: res.Messages(),
					MeanGap:  res.MeanPaceGap(),
					Spread:   res.Spread(),
					Elapsed:  res.Elapsed,
					Rate:     1,
				}
				cell.Episodes, cell.DeferredSteps = res.RateLimited()
				for _, s := range res.Nodes {
					cell.Backoffs += s.PaceBackoffs
					cell.Recovers += s.PaceRecovers
				}
				if cell.Initiated > 0 {
					cell.Rate = float64(cell.Completed) / float64(cell.Initiated)
				}
				if cell.Completed > 0 {
					cell.MsgsPerOp = float64(cell.Messages) / float64(cell.Completed)
				}
				out.Cells = append(out.Cells, cell)
			}
		}
	}
	return out, nil
}

// cell returns the sweep cell for one (transport, n, mode), nil if absent.
func (r *PacerSweepResult) cell(tr string, n int, mode cluster.PaceMode) *PacerSweepCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Transport == tr && c.N == n && c.Mode == mode {
			return c
		}
	}
	return nil
}

// Render writes the sweep tables and the n=16 verdict: whether adaptive
// pacing closes the TCP completion-rate gap without the traffic cost.
func (r *PacerSweepResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf(
		"Initiation pacing sweep (%d steps, δ=%d, fixed gap %v): off vs fixed vs adaptive",
		r.Steps, r.Delta, r.FixedGap)); err != nil {
		return err
	}
	tb := trace.NewTable("protocol outcomes by pacing policy",
		"transport", "n", "pace", "initiated", "completed", "rate",
		"messages", "msgs/op", "deferrals", "backoffs", "recovers",
		"mean gap", "spread")
	for _, c := range r.Cells {
		tb.AddRow(c.Transport, c.N, c.Mode.String(), c.Initiated, c.Completed,
			c.Rate, c.Messages, c.MsgsPerOp, c.Episodes, c.Backoffs,
			c.Recovers, c.MeanGap.String(), c.Spread)
	}
	if err := tb.WriteText(w); err != nil {
		return err
	}
	inproc := r.cell("inproc", 16, cluster.PaceOff)
	free := r.cell("tcp", 16, cluster.PaceOff)
	adapt := r.cell("tcp", 16, cluster.PaceAdaptive)
	if inproc == nil || free == nil || adapt == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w,
		"n=16 completion rate: inproc free-running %.3f, tcp free-running %.3f, tcp adaptive %.3f (%.1f× the free-running rate, inproc/%.1f)\n",
		inproc.Rate, free.Rate, adapt.Rate, ratio(adapt.Rate, free.Rate), ratio(inproc.Rate, adapt.Rate)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"n=16 tcp traffic per completed op: free-running %.0f msgs, adaptive %.0f msgs (%.1f× cheaper)\n",
		free.MsgsPerOp, adapt.MsgsPerOp, ratio(free.MsgsPerOp, adapt.MsgsPerOp)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "the adaptive controller pays one discovery storm (every opening trigger\ncollides — that is how it measures the collision window), then holds the\nattempt rate where collisions are rare; the fixed valve defers blindly and\nthe free-running cluster burns its wire on aborted attempts.\n")
	return err
}
