package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

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
	AtMS      float64
	Alerting  bool
	BurnShort float64
	BurnLong  float64
	BadTotal  float64 // since-start bad completion fraction
	ObsTotal  float64 // since-start completions
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

// Quick-scale sizing, relative to what the host measures (see
// SojournAnatomy): the SLO threshold as a multiple of the steady arm's
// warmed-up p95, the spike as a multiple of nominal cluster capacity.
const (
	quickSLOFactor   = 8
	quickSpikeFactor = 1.5
)

// components of the unit sojourn, in pipeline order.
var anatomyComponents = []string{"ingest_wait", "queue", "transfer", "service"}

// SojournAnatomy runs the steady control and the spike arm at n=8 over
// TCP, each under the health monitor, and decomposes every completed
// unit's sojourn into ingest-wait / queue / transfer / service from the
// journey stamps carried on the wire.
func SojournAnatomy(scale Scale, seed uint64) (*SojournAnatomyResult, error) {
	const (
		n            = 8
		conP         = 1.0
		stepInterval = 200 * time.Microsecond
	)
	// The first envelope window is a warmup: connection setup and the
	// balancer's first reaction to load are a genuine transient, so the
	// monitor's baseline snapshot waits it out — an operator watches a
	// long-running service, not its first 300ms.
	//
	// Quick scale runs as a smoke test on arbitrary CI hardware, where
	// scheduler latency and effective service capacity vary by an order
	// of magnitude between hosts, so no absolute latency threshold
	// separates "healthy" from "spiking" everywhere: one loose enough for
	// an oversubscribed core is never crossed on a fast one. Its SLO
	// threshold is therefore left open here and calibrated by the steady
	// arm — quickSLOFactor × the p95 that arm has measured when its
	// warmup ends (see runAnatomyArm) — and the spike is sized against
	// the cluster's nominal capacity, which bounds any host's real
	// capacity from above: quickSpikeFactor × what the nodes can serve,
	// long enough to queue many thresholds' worth of work. The tight
	// production-shaped threshold and rates are full scale's, which
	// generates the published artifact.
	demand := workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 20}
	spikeRate := quickSpikeFactor * n * conP / stepInterval.Seconds() / demand.Mean()
	sloText := "p95 < 1s over 120ms/360ms burn 2" // threshold replaced by calibration
	pollPeriod := 15 * time.Millisecond
	warmup := 300 * time.Millisecond
	steadyEnv := "75x300ms,150x1500ms"
	spikeEnv := fmt.Sprintf("75x300ms,150x700ms,%.0fx300ms,150x500ms", spikeRate)
	if scale == ScaleFull {
		sloText = "p95 < 25ms over 120ms/360ms burn 2"
		pollPeriod = 25 * time.Millisecond
		warmup = 500 * time.Millisecond
		steadyEnv, spikeEnv = "300x500ms,800x4000ms", "300x500ms,800x1800ms,12000x500ms,800x1700ms"
	}
	slo, err := obs.ParseSLO(sloText)
	if err != nil {
		return nil, err
	}
	if scale != ScaleFull {
		slo.Threshold = 0
	}
	out := &SojournAnatomyResult{
		N:           n,
		SLO:         slo,
		Demand:      demand,
		HotFrac:     0.7,
		HotN:        n / 4,
		ServiceRate: conP / stepInterval.Seconds(),
	}
	for _, armSpec := range []struct{ mode, env string }{
		{"steady", steadyEnv},
		{"spike", spikeEnv},
	} {
		arm, err := runAnatomyArm(armSpec.mode, armSpec.env, out, conP, stepInterval, pollPeriod, warmup, seed)
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
	conP float64, stepInterval, pollPeriod, warmup time.Duration, seed uint64) (*AnatomyArm, error) {
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
	sc, err := serve.StartServeCluster(serve.ClusterSpec{
		N: cfg.N, Delta: 2, F: 1.2,
		ConP: conP, StepInterval: stepInterval,
		Seed: seed, Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	dbg, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		sc.DrainAndStop(time.Second)
		return nil, err
	}
	defer dbg.Close()

	all := make([]int, cfg.N)
	for i := range all {
		all[i] = i
	}
	arm := &AnatomyArm{Mode: mode, Envelope: env.String(), FirstAlertMS: -1, BudgetExhaustMS: -1}

	// Drive the monitor by hand on a fixed cadence so the alert
	// timeline is captured poll by poll. The baseline snapshot waits
	// out the warmup window so the rolling SLO state starts from the
	// steady regime.
	start := time.Now()
	var (
		mon      *obs.Monitor // built when the warmup ends
		pollMu   sync.Mutex
		pollStop = make(chan struct{})
		pollDone = make(chan struct{})
	)
	record := func() {
		if mon == nil {
			return
		}
		doc := mon.Poll()
		pollMu.Lock()
		arm.Polls = append(arm.Polls, AnatomyPoll{
			AtMS:      time.Since(start).Seconds() * 1e3,
			Alerting:  doc.Alerting,
			BurnShort: doc.BurnShort,
			BurnLong:  doc.BurnLong,
			BadTotal:  doc.BadTotal,
			ObsTotal:  doc.ObsTotal,
		})
		pollMu.Unlock()
	}
	go func() {
		defer close(pollDone)
		select {
		case <-pollStop:
			return
		case <-time.After(warmup):
		}
		// An open threshold (quick scale) is calibrated here, once, from
		// what this host has served so far; later arms reuse it.
		if cfg.SLO.Threshold == 0 {
			cfg.SLO.Threshold = quickSLOFactor * mergedQuantile(reg, all, serve.SojournMetric, cfg.SLO.Quantile)
			if cfg.SLO.Threshold == 0 {
				return // nothing completed during the warmup: reported below
			}
		}
		mon = obs.NewMonitor(obs.MonitorConfig{
			URLs: []string{dbg.URL()},
			SLO:  cfg.SLO,
		})
		mon.Poll() // baseline snapshot
		tick := time.NewTicker(pollPeriod)
		defer tick.Stop()
		for {
			select {
			case <-pollStop:
				return
			case <-tick.C:
				record()
			}
		}
	}()

	spec := serve.LoadSpec{HotFrac: cfg.HotFrac, HotN: cfg.HotN}
	res, err := serve.Drive(sc.Addrs(), arrivals, spec, seed+1, 30*time.Second)
	close(pollStop)
	<-pollDone
	record() // final state after the drive
	if err != nil {
		sc.DrainAndStop(time.Second)
		return nil, err
	}
	cres, stats, err := sc.DrainAndStop(30 * time.Second)
	if err != nil {
		return nil, err
	}
	if !cres.Conserved() || !cres.JobsConserved() {
		return nil, fmt.Errorf("conservation violated")
	}
	if stats.UnitsCompleted != stats.UnitsAccepted {
		return nil, fmt.Errorf("%d units stranded", stats.UnitsAccepted-stats.UnitsCompleted)
	}
	arm.Submitted, arm.Completed = res.Submitted, res.Completed

	// Decomposition from the journey histograms. Every histogram was
	// registered by the servers; Registry.Histogram hands back the
	// existing instance.
	hot := make([]int, 0, cfg.HotN)
	cold := make([]int, 0, cfg.N-cfg.HotN)
	for i := 0; i < cfg.N; i++ {
		if i < cfg.HotN {
			hot = append(hot, i)
		} else {
			cold = append(cold, i)
		}
	}
	unitCount, unitSum := int64(0), 0.0
	for _, node := range all {
		h := reg.Histogram(serve.UnitSojournMetric(node), obs.SojournBuckets)
		unitCount += h.Count()
		unitSum += h.Sum()
	}
	compTotal := 0.0
	for _, comp := range anatomyComponents {
		count, sum := int64(0), 0.0
		for _, node := range all {
			h := reg.Histogram(serve.JourneyMetric(node, comp), obs.SojournBuckets)
			count += h.Count()
			sum += h.Sum()
		}
		c := AnatomyComponent{Name: comp, Count: count}
		if count > 0 {
			c.MeanMS = sum / float64(count) * 1e3
		}
		if unitSum > 0 {
			c.Share = sum / unitSum
		}
		compTotal += sum
		arm.Components = append(arm.Components, c)
	}
	if unitCount > 0 {
		arm.UnitMeanMS = unitSum / float64(unitCount) * 1e3
	}
	if unitSum > 0 {
		arm.ComponentVsUnitErr = math.Abs(compTotal-unitSum) / unitSum
	}
	// The decomposition must account for the unit sojourn: the four
	// components sum to it exactly up to clamping of sub-clock skews.
	if arm.ComponentVsUnitErr > 0.05 {
		return nil, fmt.Errorf("components sum to %.2fms vs unit sojourn %.2fms (%.1f%% off)",
			compTotal/float64(unitCount)*1e3, arm.UnitMeanMS, arm.ComponentVsUnitErr*100)
	}
	arm.UnitP99MS = mergedQuantile(reg, all, serve.UnitSojournMetric, 0.99) * 1e3
	arm.HotP99MS = mergedQuantile(reg, hot, serve.UnitSojournMetric, 0.99) * 1e3
	arm.ColdP99MS = mergedQuantile(reg, cold, serve.UnitSojournMetric, 0.99) * 1e3
	hotQ := 0.0
	hotQCount := int64(0)
	for _, node := range hot {
		h := reg.Histogram(serve.JourneyMetric(node, "queue"), obs.SojournBuckets)
		hotQ += h.Sum()
		hotQCount += h.Count()
	}
	if hotQCount > 0 {
		arm.HotQueueMS = hotQ / float64(hotQCount) * 1e3
	}
	hopsCount, hopsSum := int64(0), 0.0
	for _, node := range all {
		h := reg.Histogram(serve.HopsMetric(node), serve.HopBuckets)
		hopsCount += h.Count()
		hopsSum += h.Sum()
	}
	if hopsCount > 0 {
		arm.MeanHops = hopsSum / float64(hopsCount)
	}

	// Alert timeline vs the run's overall error budget: the monitor is
	// early warning exactly when the first alert lands while most of
	// the whole-run budget (1−q of all completions) is still unspent.
	if len(arm.Polls) == 0 {
		return nil, fmt.Errorf("monitor never polled (drive shorter than the %v warmup, or no job completed in it?)", warmup)
	}
	final := arm.Polls[len(arm.Polls)-1]
	arm.FinalBadFrac = final.BadTotal
	budgetCount := (1 - cfg.SLO.Quantile) * final.ObsTotal
	for _, p := range arm.Polls {
		bad := p.BadTotal * p.ObsTotal
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
	for _, p := range arm.Polls {
		if p.Alerting {
			arm.Alerts++
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
