package experiments

import (
	"fmt"
	"io"
	"time"

	"lmbalance/internal/netsim"
	"lmbalance/internal/rng"
	"lmbalance/internal/serve"
	"lmbalance/internal/trace"
	"lmbalance/internal/workload"
)

// ServeSLOArm is one serving configuration's end-to-end measurement:
// the same open-loop workload against one cluster arm, with the jobs'
// sojourn quantiles.
type ServeSLOArm struct {
	Mode          string // "none" or "balanced"
	Submitted     int64
	Completed     int64
	P50, P95, P99 float64 // sojourn seconds, exact quantiles
	Throughput    float64 // completed jobs per second, up to the last completion
	Ops           int64   // completed balancing operations
}

// ServeSLOResult is the serving-path SLO experiment: clients submit
// jobs under a skewed diurnal workload with heavy-tailed demands, and
// the question is what the balancing protocol buys in tail sojourn
// time. Two arms on identical traffic: a no-balancing control (each
// node serves only what lands on it) and the balanced protocol. Both
// run the cluster's nodes on netsim's virtual clock, so the result is
// a pure function of the seed.
type ServeSLOResult struct {
	N           int
	Envelope    string
	Demand      workload.BoundedPareto
	HotFrac     float64
	HotN        int
	ServiceRate float64 // units/s per node
	Horizon     time.Duration
	Arms        []ServeSLOArm
}

// ServeSLO runs the two serving arms at n=8. Each node serves 1 000
// units/s, so the rush's hot nodes (~1 230 units/s each) run above
// local capacity while the cluster has headroom. Quick keeps the
// horizon short; full lengthens it so the diurnal envelope cycles
// several times and the tail quantiles firm up.
func ServeSLO(scale Scale, seed uint64) (*ServeSLOResult, error) {
	const (
		n    = 8
		conP = 0.2
	)
	out := &ServeSLOResult{
		N:           n,
		Demand:      workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 100},
		HotFrac:     0.7,
		HotN:        n / 4,
		ServiceRate: conP / serveSlot.Seconds(),
		Horizon:     time.Second,
	}
	env, err := workload.ParseEnvelope("800x700ms,1300x300ms")
	if err != nil {
		return nil, err
	}
	out.Envelope = env.String()
	if scale == ScaleFull {
		out.Horizon = 4 * time.Second
	}
	arrivals, err := workload.ArrivalSpec{
		Env: env, Demand: out.Demand, Horizon: out.Horizon,
	}.Schedule(rng.New(seed))
	if err != nil {
		return nil, err
	}
	spec := serve.LoadSpec{HotFrac: out.HotFrac, HotN: out.HotN}
	for _, arm := range []struct {
		name      string
		noBalance bool
	}{
		{"none", true},
		{"balanced", false},
	} {
		run, err := serveOnNetsim(netsim.Config{
			N: n, Delta: 2, F: 1.2, ConP: []float64{conP},
			Seed: seed, NoBalance: arm.noBalance,
		}, arrivals, spec, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("serveslo %s: %w", arm.name, err)
		}
		completed := int64(len(run.sojourns))
		out.Arms = append(out.Arms, ServeSLOArm{
			Mode:      arm.name,
			Submitted: int64(len(arrivals)), Completed: completed,
			P50:        serve.Quantile(run.sojourns, 0.50),
			P95:        serve.Quantile(run.sojourns, 0.95),
			P99:        serve.Quantile(run.sojourns, 0.99),
			Throughput: float64(completed) / run.last.Seconds(),
			Ops:        run.res.Completed(),
		})
	}
	return out, nil
}

// arm returns the named arm, nil if absent.
func (r *ServeSLOResult) arm(mode string) *ServeSLOArm {
	for i := range r.Arms {
		if r.Arms[i].Mode == mode {
			return &r.Arms[i]
		}
	}
	return nil
}

// Render writes the SLO table and the verdict: balancing vs the
// no-balancing control on tail sojourn.
func (r *ServeSLOResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf(
		"Serving SLO: job sojourn on netsim's virtual clock (n=%d, %s jobs/s, Pareto α=%g [%g,%g], hot %d@%.0f%%, %.0f units/s/node, horizon %v)",
		r.N, r.Envelope, r.Demand.Alpha, r.Demand.Lo, r.Demand.Hi,
		r.HotN, r.HotFrac*100, r.ServiceRate, r.Horizon)); err != nil {
		return err
	}
	tb := trace.NewTable("sojourn-time distribution by arm",
		"mode", "submitted", "completed", "p50 ms", "p95 ms", "p99 ms", "jobs/s", "ops")
	for _, a := range r.Arms {
		tb.AddRow(a.Mode, a.Submitted, a.Completed,
			fmt.Sprintf("%.2f", a.P50*1e3), fmt.Sprintf("%.2f", a.P95*1e3),
			fmt.Sprintf("%.2f", a.P99*1e3), fmt.Sprintf("%.0f", a.Throughput),
			a.Ops)
	}
	if err := tb.WriteText(w); err != nil {
		return err
	}
	none, bal := r.arm("none"), r.arm("balanced")
	if none == nil || bal == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w,
		"balancing vs none: p99 %.2fms vs %.2fms (%.1f× better), p50 %.2fms vs %.2fms\n",
		bal.P99*1e3, none.P99*1e3, ratio(none.P99, bal.P99),
		bal.P50*1e3, none.P50*1e3); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "the hot nodes run above local capacity while the cluster has headroom; without\nmigration their queues grow for the whole rush and the tail is pure queueing\ndelay, with it the backlog drains sideways and the p99 tracks service time.\n")
	return err
}
