package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"lmbalance/internal/netsim"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/serve"
	"lmbalance/internal/trace"
	"lmbalance/internal/workload"
)

// AnatomyComponent is one slice of the unit sojourn decomposition,
// aggregated across a set of nodes: its mean and its share of the total
// unit sojourn.
type AnatomyComponent struct {
	Name   string
	Count  int64
	MeanMS float64
	Share  float64 // of the summed unit sojourn
}

// AnatomyPoll is one health-monitor poll during the drive, the raw
// material of the alert-vs-breach timeline.
type AnatomyPoll struct {
	AtMS     float64
	Alerting bool
	BadTotal float64 // since-start bad completion fraction
	ObsTotal float64 // since-start completions
}

// AnatomyArm is one workload shape (steady control vs injected spike)
// through the full journey pipeline: the per-component decomposition of
// unit sojourn, hot-vs-cold attribution, and the monitor's alert
// timeline.
type AnatomyArm struct {
	Mode      string // "steady", "spike"
	Envelope  string
	Submitted int64
	Completed int64

	Components []AnatomyComponent // ingest_wait, queue, transfer, service (all nodes)
	HotQueueMS float64            // mean queue component on the hot nodes
	UnitMeanMS float64            // mean unit sojourn, all nodes
	UnitP99MS  float64
	HotP99MS   float64 // unit sojourn p99, hot nodes only
	ColdP99MS  float64
	MeanHops   float64

	WarmP95MS          float64 // job sojourn p95 when the warmup ended, the monitor's baseline
	Alerts             int64
	FirstAlertMS       float64 // -1 if the monitor never alerted
	BudgetAtAlert      float64 // fraction of the run's error budget spent at first alert
	BudgetExhaustMS    float64 // -1 if the run never exhausted its budget
	FinalBadFrac       float64 // since-start bad fraction at the last poll
	Polls              []AnatomyPoll
	ComponentVsUnitErr float64 // |Σ components − unit sojourn| / unit sojourn
}

// SojournAnatomyResult decomposes the serving sojourn into its journey
// components and demonstrates the health monitor's early warning: under
// an injected load spike the multi-window burn-rate alert fires while
// the run's overall error budget is still mostly unspent, i.e. before
// the end-to-end SLO is breached; the steady control stays healthy.
type SojournAnatomyResult struct {
	N           int
	SLO         obs.SLO
	Demand      workload.BoundedPareto
	HotFrac     float64
	HotN        int
	ServiceRate float64
	Arms        []AnatomyArm
}

// components of the unit sojourn, in pipeline order.
var anatomyComponents = []string{"ingest_wait", "queue", "transfer", "service"}

// SojournAnatomy runs the steady control and the spike arm at n=8 on
// netsim's virtual clock, each under the health monitor, and decomposes
// every completed unit's sojourn into ingest-wait / queue / transfer /
// service from the journey stamps its records carried. One SLO serves
// both scales; the spike offers half as much again as the nodes can
// serve, long enough to queue many thresholds' worth of work. The first
// envelope window is a warmup: the monitor's baseline snapshot waits it
// out, as an operator watches a long-running service, not its first
// few hundred milliseconds.
func SojournAnatomy(scale Scale, seed uint64) (*SojournAnatomyResult, error) {
	const (
		n    = 8
		conP = 1.0
	)
	demand := workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 20}
	spikeRate := 1.5 * n * conP / serveSlot.Seconds() / demand.Mean()
	pollPeriod := 15 * time.Millisecond
	steadyEnv := "75x300ms,150x1500ms"
	spikeEnv := fmt.Sprintf("75x300ms,150x700ms,%.0fx300ms,150x500ms", spikeRate)
	if scale == ScaleFull {
		pollPeriod = 25 * time.Millisecond
		steadyEnv = "300x500ms,800x4000ms"
		spikeEnv = fmt.Sprintf("300x500ms,800x1800ms,%.0fx500ms,800x1700ms", spikeRate)
	}
	slo, err := obs.ParseSLO("p95 < 5ms over 120ms/360ms burn 2")
	if err != nil {
		return nil, err
	}
	out := &SojournAnatomyResult{
		N:           n,
		SLO:         slo,
		Demand:      demand,
		HotFrac:     0.7,
		HotN:        n / 4,
		ServiceRate: conP / serveSlot.Seconds(),
	}
	for _, armSpec := range []struct{ mode, env string }{
		{"steady", steadyEnv},
		{"spike", spikeEnv},
	} {
		arm, err := runAnatomyArm(armSpec.mode, armSpec.env, out, conP, pollPeriod, seed)
		if err != nil {
			return nil, fmt.Errorf("anatomy %s: %w", armSpec.mode, err)
		}
		out.Arms = append(out.Arms, *arm)
	}
	// The spike must trip the monitor; the control must not.
	if a := out.armFor("spike"); a.Alerts == 0 {
		return nil, fmt.Errorf("anatomy: injected spike never tripped the burn-rate alert (%d polls)", len(a.Polls))
	}
	if a := out.armFor("steady"); a.Alerts != 0 {
		return nil, fmt.Errorf("anatomy: steady control alerted %d times", a.Alerts)
	}
	return out, nil
}

func (r *SojournAnatomyResult) armFor(mode string) *AnatomyArm {
	for i := range r.Arms {
		if r.Arms[i].Mode == mode {
			return &r.Arms[i]
		}
	}
	return nil
}

func runAnatomyArm(mode, envText string, cfg *SojournAnatomyResult,
	conP float64, pollPeriod time.Duration, seed uint64) (*AnatomyArm, error) {
	env, err := workload.ParseEnvelope(envText)
	if err != nil {
		return nil, err
	}
	arrivals, err := workload.ArrivalSpec{
		Env: env, Demand: cfg.Demand, Horizon: env.Period(),
	}.Schedule(rng.New(seed))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	mon := obs.NewMonitor(obs.MonitorConfig{SLO: cfg.SLO, Obs: reg})

	nodes := make([]int, cfg.N)
	for i := range nodes {
		nodes[i] = i
	}
	arm := &AnatomyArm{Mode: mode, Envelope: env.String(), FirstAlertMS: -1, BudgetExhaustMS: -1}

	// The monitor polls between ticks on the virtual clock while the
	// arrivals last: a baseline snapshot when the warmup window ends,
	// then one poll per period, each recorded for the alert timeline.
	// A last poll records the state once the backlog has drained.
	warmup := env[0].Dur
	record := func(now time.Duration) {
		doc := mon.Poll(time.Unix(0, int64(now)))
		arm.Polls = append(arm.Polls, AnatomyPoll{
			AtMS:     float64(now) / float64(time.Millisecond),
			Alerting: doc.Alerting,
			BadTotal: doc.BadTotal,
			ObsTotal: doc.ObsTotal,
		})
	}
	poll := func(now time.Duration) {
		switch {
		case now == warmup:
			mon.Poll(time.Unix(0, int64(now)))
			arm.WarmP95MS = mergedQuantile(reg, nodes, serve.SojournMetric, 0.95) * 1e3
		case now > warmup && now <= env.Period() && (now-warmup)%pollPeriod == 0:
			record(now)
		}
	}
	spec := serve.LoadSpec{HotFrac: cfg.HotFrac, HotN: cfg.HotN}
	run, err := serveOnNetsim(netsim.Config{
		N: cfg.N, Delta: 2, F: 1.2, ConP: []float64{conP}, Seed: seed,
	}, arrivals, spec, reg, poll)
	if err != nil {
		return nil, err
	}
	record(time.Duration(run.res.Elapsed) * serveSlot)
	arm.Submitted, arm.Completed = int64(len(arrivals)), int64(len(run.sojourns))

	// Decomposition of every completed unit's sojourn, and its tails on
	// the hot and the cold nodes (by the job's origin). serveOnNetsim
	// served every unit, each for at least one slot.
	sums := make([]int64, len(anatomyComponents))
	var unitSum, hotQueue int64
	var all, hot, cold []float64
	for _, u := range run.units {
		p := u.parts
		for i, v := range []int64{p.IngestWait, p.Queue, p.Transfer, p.Service} {
			sums[i] += v
		}
		unitSum += u.sojourn
		all = append(all, slotSeconds(u.sojourn))
		if u.origin < cfg.HotN {
			hot = append(hot, slotSeconds(u.sojourn))
			hotQueue += p.Queue
		} else {
			cold = append(cold, slotSeconds(u.sojourn))
		}
	}
	units := int64(len(run.units))
	compTotal := int64(0)
	for i, name := range anatomyComponents {
		arm.Components = append(arm.Components, AnatomyComponent{
			Name: name, Count: units,
			MeanMS: slotSeconds(sums[i]) / float64(units) * 1e3,
			Share:  float64(sums[i]) / float64(unitSum),
		})
		compTotal += sums[i]
	}
	arm.UnitMeanMS = slotSeconds(unitSum) / float64(units) * 1e3
	arm.ComponentVsUnitErr = math.Abs(float64(compTotal-unitSum)) / float64(unitSum)
	// The decomposition must account for the unit sojourn: the four
	// components sum to it exactly up to their clamping at zero.
	if arm.ComponentVsUnitErr > 0.05 {
		return nil, fmt.Errorf("components sum to %.2fms vs unit sojourn %.2fms (%.1f%% off)",
			slotSeconds(compTotal)/float64(units)*1e3, arm.UnitMeanMS, arm.ComponentVsUnitErr*100)
	}
	arm.UnitP99MS = serve.Quantile(all, 0.99) * 1e3
	arm.HotP99MS = serve.Quantile(hot, 0.99) * 1e3
	arm.ColdP99MS = serve.Quantile(cold, 0.99) * 1e3
	arm.HotQueueMS = slotSeconds(hotQueue) / float64(len(hot)) * 1e3
	arm.MeanHops = float64(run.hops) / float64(arm.Completed)

	// Alert timeline vs the run's overall error budget: the monitor is
	// early warning exactly when the first alert lands while most of
	// the whole-run budget (1−q of all completions) is still unspent.
	final := arm.Polls[len(arm.Polls)-1]
	arm.FinalBadFrac = final.BadTotal
	budgetCount := (1 - cfg.SLO.Quantile) * final.ObsTotal
	for _, p := range arm.Polls {
		bad := p.BadTotal * p.ObsTotal
		if p.Alerting {
			arm.Alerts++
		}
		if arm.FirstAlertMS < 0 && p.Alerting {
			arm.FirstAlertMS = p.AtMS
			if budgetCount > 0 {
				arm.BudgetAtAlert = bad / budgetCount
			}
		}
		if arm.BudgetExhaustMS < 0 && budgetCount > 0 && bad >= budgetCount {
			arm.BudgetExhaustMS = p.AtMS
		}
	}
	return arm, nil
}

// mergedQuantile inverts the merged distribution of one metric
// family's per-node histograms at q.
func mergedQuantile(reg *obs.Registry, nodes []int, metric func(int) string, q float64) float64 {
	hs := make([]*obs.Histogram, len(nodes))
	for i, node := range nodes {
		hs[i] = reg.Histogram(metric(node), obs.SojournBuckets)
	}
	return obs.MergedQuantile(q, hs...)
}

// Render writes the decomposition tables and the alert timeline.
func (r *SojournAnatomyResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf(
		"Sojourn anatomy: journey decomposition + burn-rate early warning (n=%d, Pareto α=%g [%g,%g], hot %d@%.0f%%, %.0f units/s/node, SLO %s)",
		r.N, r.Demand.Alpha, r.Demand.Lo, r.Demand.Hi,
		r.HotN, r.HotFrac*100, r.ServiceRate, r.SLO)); err != nil {
		return err
	}
	for i := range r.Arms {
		a := &r.Arms[i]
		tb := trace.NewTable(
			fmt.Sprintf("%s arm (%s jobs/s): unit sojourn decomposition over %d jobs",
				a.Mode, a.Envelope, a.Completed),
			"component", "units", "mean ms", "share")
		for _, c := range a.Components {
			tb.AddRow(c.Name, c.Count, fmt.Sprintf("%.3f", c.MeanMS), fmt.Sprintf("%.1f%%", c.Share*100))
		}
		tb.AddRow("= unit sojourn", "", fmt.Sprintf("%.3f", a.UnitMeanMS),
			fmt.Sprintf("(decomposition off by %.2f%%)", a.ComponentVsUnitErr*100))
		if err := tb.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w,
			"%s: unit p99 %.2fms — hot nodes %.2fms vs cold %.2fms; hot-node mean queue %.3fms; mean hops %.2f\n",
			a.Mode, a.UnitP99MS, a.HotP99MS, a.ColdP99MS, a.HotQueueMS, a.MeanHops); err != nil {
			return err
		}
		switch {
		case a.FirstAlertMS >= 0 && a.BudgetExhaustMS >= 0:
			if _, err := fmt.Fprintf(w,
				"%s: burn-rate alert at %.0fms with %.0f%% of the run's error budget spent; budget exhausted at %.0fms — %.0fms of warning\n",
				a.Mode, a.FirstAlertMS, a.BudgetAtAlert*100, a.BudgetExhaustMS, a.BudgetExhaustMS-a.FirstAlertMS); err != nil {
				return err
			}
		case a.FirstAlertMS >= 0:
			if _, err := fmt.Fprintf(w,
				"%s: burn-rate alert at %.0fms with %.0f%% of the run's error budget spent; budget never exhausted\n",
				a.Mode, a.FirstAlertMS, a.BudgetAtAlert*100); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s: monitor stayed healthy (%d polls, final bad fraction %.2f%%)\n",
				a.Mode, len(a.Polls), a.FinalBadFrac*100); err != nil {
				return err
			}
		}
	}
	steady, spike := r.armFor("steady"), r.armFor("spike")
	if steady == nil || spike == nil {
		return nil
	}
	_, err := fmt.Fprintf(w, "the spike's tail is queueing delay on the hot nodes (queue share %.0f%% vs %.0f%% steady);\nthe multi-window burn rate crosses its threshold while the overall budget is still\nmostly unspent — the alert leads the SLO breach instead of reporting it.\n",
		spike.Components[1].Share*100, steady.Components[1].Share*100)
	return err
}
