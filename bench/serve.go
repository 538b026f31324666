package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/serve"
	"lmbalance/internal/wire"
)

// serveSpec shapes one serving cluster. The benchmark assembles it from
// the public constructors rather than through serve.StartServeCluster so
// the traced pass can interpose its wrappers; with reg and tr nil this
// is that harness's assembly exactly.
type serveSpec struct {
	nodes        int
	tcp          bool // cluster links over TCP rather than in-process loopback
	stepInterval time.Duration
	seed         uint64
	reg          *obs.Registry // node and front-end metrics; nil leaves them off
	tr           *tracer       // span-recording wrappers; nil leaves them out
}

type serveCluster struct {
	servers []*serve.Server
	stop    chan struct{}
	resCh   chan clusterOutcome
	reg     *obs.Registry      // the spec's registry, for reading the programs' counters back
	links   []*tracedTransport // traced pass only, like hooks
	hooks   []*tracedHooks
}

type clusterOutcome struct {
	res *cluster.Result
	err error
}

func startServe(spec serveSpec) (*serveCluster, error) {
	transports := make([]wire.Transport, spec.nodes)
	if spec.tcp {
		ts, err := wire.NewLocalCluster(spec.nodes)
		if err != nil {
			return nil, fmt.Errorf("cluster transport: %w", err)
		}
		for i, t := range ts {
			transports[i] = t
		}
	} else {
		lnet := wire.NewLoopback(spec.nodes)
		for i := range transports {
			transports[i] = lnet.Transport(i)
		}
	}
	sc := &serveCluster{reg: spec.reg, stop: make(chan struct{}), resCh: make(chan clusterOutcome, 1)}
	if spec.tr != nil {
		for i, t := range transports {
			tt := traceTransport(spec.tr, i, t)
			sc.links = append(sc.links, tt)
			transports[i] = tt
		}
	}
	abandon := func() {
		for _, s := range sc.servers {
			s.Close()
		}
		for _, h := range sc.hooks {
			h.close()
		}
		for _, t := range transports {
			t.Close()
		}
	}
	hooks := make([]*cluster.ServeHooks, spec.nodes)
	for i := range hooks {
		s, err := serve.NewServer(i, "127.0.0.1:0", spec.reg)
		if err != nil {
			abandon()
			return nil, err
		}
		sc.servers = append(sc.servers, s)
		hooks[i] = s.Hooks()
		if spec.tr != nil {
			th, wrapped := traceHooks(hooks[i])
			sc.hooks = append(sc.hooks, th)
			hooks[i] = wrapped
		}
	}
	nodes, err := cluster.NewNodes(cluster.ClusterConfig{
		N: spec.nodes, Delta: clusterDelta, F: clusterF,
		Steps: 1 << 30, // the run ends via Stop
		GenP:  []float64{0}, ConP: []float64{1},
		Seed: spec.seed, Obs: spec.reg,
		StepInterval: spec.stepInterval,
		Stop:         sc.stop,
		ServePerNode: hooks,
	}, transports)
	if err != nil {
		abandon() // NewNodes already closed the transports; Close is idempotent
		return nil, err
	}
	go func() {
		res, err := cluster.RunNodes(nodes)
		sc.resCh <- clusterOutcome{res, err}
	}()
	return sc, nil
}

// addrs returns the first k front-ends' client addresses.
func (sc *serveCluster) addrs(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = sc.servers[i].Addr()
	}
	return out
}

func (sc *serveCluster) stats() serve.Stats {
	var t serve.Stats
	for _, s := range sc.servers {
		st := s.Stats()
		t.JobsAccepted += st.JobsAccepted
		t.JobsCompleted += st.JobsCompleted
		t.UnitsAccepted += st.UnitsAccepted
		t.UnitsCompleted += st.UnitsCompleted
		t.DonesDropped += st.DonesDropped
		t.InflightUnits += st.InflightUnits
	}
	return t
}

// serveAccount is everything the serving-path output checks look at.
type serveAccount struct {
	clientSubmitted  int64
	clientCompleted  int64 // CDone frames the client read before the front-ends hung up
	clientUnfinished int64 // jobs not done when the generator stopped waiting: the failed operations
	srv              serve.Stats
	res              *cluster.Result
	shutdown         time.Duration // Stop closed → RunNodes returned
}

// finish waits — up to drain — for every accepted unit to complete,
// stops the cluster and shuts the front-ends.
func (sc *serveCluster) finish(drain time.Duration) (serveAccount, error) {
	deadline := time.Now().Add(drain)
	lastAccepted, stableSince := int64(-1), time.Now()
	for {
		t := sc.stats()
		balanced := t.UnitsCompleted >= t.UnitsAccepted
		if !balanced || t.UnitsAccepted != lastAccepted {
			lastAccepted, stableSince = t.UnitsAccepted, time.Now()
		}
		if balanced && time.Since(stableSince) >= 20*time.Millisecond {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stopAt := time.Now()
	close(sc.stop)
	out := <-sc.resCh
	acct := serveAccount{shutdown: time.Since(stopAt), res: out.res, srv: sc.stats()}
	for _, s := range sc.servers {
		s.Close()
	}
	for _, h := range sc.hooks {
		h.close()
	}
	if out.err != nil {
		return acct, fmt.Errorf("cluster run: %w", out.err)
	}
	return acct, nil
}

// check is the serving path's output check: packet conservation, job
// conservation across client, front-ends and nodes, and nothing left
// behind once the run has drained.
func (a serveAccount) check() error {
	switch {
	case !a.res.Conserved():
		return fmt.Errorf("packet conservation violated (per-node counters)")
	case !a.res.Summary.Conserved():
		return fmt.Errorf("packet conservation violated (coordinator's Bye audit)")
	case !a.res.JobsConserved():
		return fmt.Errorf("job conservation violated: ingested %d != done %d + held %d",
			a.res.Ingested(), a.res.UnitsDone(), a.res.RecordsHeld())
	case a.srv.JobsAccepted != a.clientSubmitted:
		return fmt.Errorf("front-ends accepted %d jobs, client submitted %d", a.srv.JobsAccepted, a.clientSubmitted)
	case a.res.Ingested() != a.srv.UnitsAccepted:
		return fmt.Errorf("nodes ingested %d units, front-ends accepted %d", a.res.Ingested(), a.srv.UnitsAccepted)
	case a.res.UnitsDone() != a.srv.UnitsCompleted:
		return fmt.Errorf("nodes completed %d units, front-ends saw %d", a.res.UnitsDone(), a.srv.UnitsCompleted)
	case a.clientCompleted > a.srv.JobsCompleted || a.clientCompleted+a.srv.DonesDropped < a.srv.JobsCompleted:
		// The client reads until the front-ends hang up, so every CDone
		// that was not dropped (and counted as such) must have arrived.
		return fmt.Errorf("job conservation violated: client saw %d completions, front-ends sent %d (dropped %d)",
			a.clientCompleted, a.srv.JobsCompleted, a.srv.DonesDropped)
	case a.srv.JobsCompleted == a.srv.JobsAccepted && a.res.RecordsHeld() != 0:
		return fmt.Errorf("%d job records still held after every job completed", a.res.RecordsHeld())
	}
	return nil
}

// clientConns is how many front-ends the load client submits to: one
// generator goroutine drives both connections, so the generator never
// needs more threads than the 2-core baseline host has.
const clientConns = 2

// timedSetup brings a cluster up and connects the load client, timing
// the whole of it.
func timedSetup(spec serveSpec) (*serveCluster, *loadClient, time.Duration, error) {
	start := time.Now()
	sc, err := startServe(spec)
	if err != nil {
		return nil, nil, 0, err
	}
	lc, err := dialClients(sc.addrs(clientConns))
	if err != nil {
		sc.finish(0)
		return nil, nil, 0, err
	}
	return sc, lc, time.Since(start), nil
}

// rungResult is one open-loop rung's outcome.
type rungResult struct {
	name       string
	rate       float64 // offered jobs/s
	jobs       int     // jobs due inside the statistics window
	unfinished int
	p50, p99   float64   // ms over the whole window; unfinished jobs count as +Inf
	subP50     []float64 // per sub-window
	subP90     []float64
	within     int     // jobs completed inside latencyLimit
	goodput    float64 // within / window seconds
	backlogMid int
	backlogEnd int
	lateP99    time.Duration
	setup      float64 // seconds: schedule generation + bring-up + warm-up, i.e. until the first timed arrival
	bringUp    time.Duration
	acct       serveAccount
	open       *openResult
	sc         *serveCluster // for the registry and the wrappers' tallies, after finish
}

func (r *rungResult) attainment() float64 { return float64(r.within) / float64(r.jobs) }

// sustained reports whether the rung meets the latency limit without a
// growing backlog. A backlog no larger than what the limit itself allows
// in flight (rate × limit) is not growth, whatever its two samples say.
func (r *rungResult) sustained() bool {
	allowed := int(r.rate * latencyLimit.Seconds())
	if r.backlogMid > allowed {
		allowed = r.backlogMid
	}
	return r.p99 <= float64(latencyLimit.Milliseconds()) && r.attainment() >= 0.99 && r.backlogEnd <= allowed
}

// lateLimit is the generator-validity threshold: the open-loop generator
// may run this late at p99. Sojourn is timed from the due instant, so
// lateness can only add to the latency reported, never hide it; the
// threshold bounds how much of the limit the generator itself may eat.
const lateLimit = latencyLimit / 20

// unfinishedMS stands in for +Inf in a quantile that lands on an
// unfinished job; such a run also reports failed operations.
const unfinishedMS = 1e9

func runSkewRung(c *runCtx, rung int, window time.Duration) (*rungResult, error) {
	warm := skewWarm
	if window < 4*warm {
		warm = window / 4
	}
	setupStart := time.Now()
	jobs, err := skewSchedule(c.seed, rung, warm+window)
	if err != nil {
		return nil, err
	}
	genDur := time.Since(setupStart)
	spec := serveSpec{
		nodes: skewNodes, tcp: true, stepInterval: skewStepInterval,
		seed: clusterSeed(c.seed, streamSkew, rung), tr: c.tr,
	}
	if c.tr != nil {
		// The journey components and phase latencies the layer table
		// reports are read off the programs' own registry.
		spec.reg = obs.NewRegistry()
	}
	sc, lc, bringUp, err := timedSetup(spec)
	if err != nil {
		return nil, err
	}
	open, err := lc.runOpen(jobs, skewDrain)
	if err != nil {
		sc.finish(0)
		lc.close()
		return nil, err
	}
	acct, err := sc.finish(skewDrain)
	lc.close() // the front-ends have hung up: joins the readers, recs is final
	if err != nil {
		return nil, err
	}
	r := &rungResult{
		name: skewRungs[rung].name, rate: skewRate(skewRungs[rung].share),
		setup: (genDur + bringUp + warm).Seconds(), bringUp: bringUp, open: open, sc: sc,
		lateP99: time.Duration(open.late.quantile(0.99)),
	}
	acct.clientSubmitted = int64(len(jobs))
	for i, rec := range open.recs {
		if rec.done != 0 {
			acct.clientCompleted++
		}
		if !open.finished(i) {
			acct.clientUnfinished++
		}
	}
	r.acct = acct
	if err := acct.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}

	nSub := int(window / c.sz.skewSubWindow)
	if nSub < 1 {
		nSub = 1
	}
	subs := make([][]float64, nSub)
	var all []float64
	mid, end := int64(warm+window/2), int64(warm+window)
	for i, j := range jobs {
		rec := open.recs[i]
		due := int64(j.due)
		if due <= mid && (rec.done == 0 || rec.done > mid) {
			r.backlogMid++
		}
		if due <= end && (rec.done == 0 || rec.done > end) {
			r.backlogEnd++
		}
		if j.due < warm {
			continue
		}
		r.jobs++
		if !open.finished(i) {
			r.unfinished++
			continue
		}
		ms := float64(rec.done-due) / 1e6
		all = append(all, ms)
		if ms <= float64(latencyLimit.Milliseconds()) {
			r.within++
		}
		k := int((j.due - warm) / c.sz.skewSubWindow)
		if k >= nSub {
			k = nSub - 1
		}
		subs[k] = append(subs[k], ms)
	}
	if r.jobs == 0 {
		return nil, fmt.Errorf("%s: no jobs inside the statistics window", r.name)
	}
	sort.Float64s(all)
	r.p50, r.p99 = quantileWithLost(all, r.unfinished, 0.50), quantileWithLost(all, r.unfinished, 0.99)
	for _, s := range subs {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		r.subP50 = append(r.subP50, quantile(s, 0.50))
		r.subP90 = append(r.subP90, quantile(s, 0.90))
	}
	r.goodput = float64(r.within) / window.Seconds()
	return r, nil
}

// quantileWithLost is quantile over sorted plus lost samples at +Inf.
func quantileWithLost(sorted []float64, lost int, q float64) float64 {
	n := len(sorted) + lost
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		return unfinishedMS
	}
	return sorted[i]
}

// runSkew is the serve_skew workload. The untraced pass drives the r50
// rung — the operating point every end-to-end metric is read at — for
// the whole budget; the traced pass drives all three rungs for a sixth
// of it each. The upper rung sits too close to the knee of a capacity
// that a timer sets (see README) to be read in the gated pass: its
// latency moves by a third from one run to the next, and a host stall
// there leaves a backlog that takes seconds to drain.
func runSkew(c *runCtx) (*runResult, error) {
	rungs, share := []int{1}, 1.0
	if c.tr != nil {
		rungs, share = []int{0, 1, 2}, 1.0/6
	}
	window := time.Duration(float64(c.seconds) * share)
	out := newRunResult()
	results := map[string]*rungResult{}
	var msgs, bytes, jobsDone int64
	for _, ri := range rungs {
		r, err := runSkewRung(c, ri, window)
		if err != nil {
			return nil, err
		}
		results[r.name] = r
		msgs += r.acct.res.Messages()
		bytes += r.acct.res.Bytes()
		jobsDone += r.acct.clientCompleted
		out.attempted += r.acct.clientSubmitted
		out.failed += r.acct.clientUnfinished
		valid := "valid"
		if r.lateP99 > lateLimit {
			valid = fmt.Sprintf("INVALID (generator late, limit %v): not a regression, a broken measurement", lateLimit)
		}
		out.notef("%s: offered %.0f jobs/s for %v: %d jobs, %d unfinished, p50 %.3f ms, p99 %.3f ms, attainment %.4f, backlog mid/end %d/%d, generator late p99 %v — %s",
			r.name, r.rate, window, r.jobs, r.unfinished, r.p50, r.p99, r.attainment(), r.backlogMid, r.backlogEnd, r.lateP99, valid)
	}
	r50 := results["r50"]
	out.set("setup_s", r50.setup)
	out.set("throughput_per_s", r50.goodput)
	out.set("latency_mid_ms", lowQuartile(r50.subP50))
	out.set("latency_tail_ms", lowQuartile(r50.subP90))
	out.set("overhead_per_work", float64(msgs)/float64(jobsDone))
	out.notef("setup_s: schedule generation + bring-up (%v) + the %v of arrivals left out of the statistics", r50.bringUp, skewWarm)
	out.notef("throughput_per_s: jobs completed within %v per second at r50 (%d of %d jobs)", latencyLimit, r50.within, r50.jobs)
	out.notef("latency_mid_ms / latency_tail_ms: lower quartiles over %d sub-windows of %v at r50 of the p50 / p90 sojourn (%d samples; whole-window p50 %.3f ms, p99 %.3f ms)",
		len(r50.subP50), c.sz.skewSubWindow, r50.jobs, r50.p50, r50.p99)
	out.notef("overhead_per_work: %d cluster-link messages / %d completed jobs", msgs, jobsDone)

	if c.tr != nil {
		skewLayers(c, out, results, bytes, jobsDone)
	}
	return out, nil
}

// firehoseArm is one closed-loop window against a fresh cluster.
type firehoseArm struct {
	cr    *closedResult
	acct  serveAccount
	sc    *serveCluster
	setup float64 // seconds: bring-up plus warm-up
}

func runFirehoseArm(c *runCtx, dur time.Duration, reg *obs.Registry, tr *tracer) (*firehoseArm, error) {
	spec := serveSpec{
		nodes: firehoseNodes, stepInterval: firehoseStepInterval,
		seed: clusterSeed(c.seed, streamFirehose, 0), reg: reg, tr: tr,
	}
	sc, lc, bringUp, err := timedSetup(spec)
	if err != nil {
		return nil, err
	}
	cr, err := lc.runClosed(firehoseWindow, c.sz.firehoseWarm, dur, c.sz.subWindow, firehoseDrain, tr)
	if err != nil {
		sc.finish(0)
		lc.close()
		return nil, err
	}
	acct, err := sc.finish(firehoseDrain)
	lc.close() // the front-ends have hung up: joins the readers
	if err != nil {
		return nil, err
	}
	acct.clientSubmitted, acct.clientCompleted, acct.clientUnfinished = cr.submitted, cr.doneFrames.Load(), cr.unfinished
	if err := acct.check(); err != nil {
		return nil, err
	}
	return &firehoseArm{cr: cr, acct: acct, sc: sc, setup: (bringUp + cr.warm).Seconds()}, nil
}

// closedStats are the figures read off one closed-loop window.
type closedStats struct {
	jobsPerS, p50, p90, p99 float64 // undisturbed quartiles over sub-windows; ms
	wholeP50, wholeP99      float64
	samples, subs           int
}

func summarizeClosed(cr *closedResult) (closedStats, error) {
	var st closedStats
	var rates, p50s, p90s, p99s []float64
	prev := 0
	for _, e := range cr.subEnds {
		rates = append(rates, float64(e-prev)/cr.sub.Seconds())
		if e > prev {
			s := make([]float64, e-prev)
			for i, v := range cr.soj[prev:e] {
				s[i] = float64(v) / 1e6
			}
			sort.Float64s(s)
			p50s = append(p50s, quantile(s, 0.50))
			p90s = append(p90s, quantile(s, 0.90))
			p99s = append(p99s, quantile(s, 0.99))
		}
		prev = e
	}
	if len(p50s) == 0 {
		return st, fmt.Errorf("no job completed inside the measurement window")
	}
	all := make([]float64, len(cr.soj))
	for i, v := range cr.soj {
		all[i] = float64(v) / 1e6
	}
	sort.Float64s(all)
	st = closedStats{
		jobsPerS: highQuartile(rates), p50: lowQuartile(p50s), p90: lowQuartile(p90s), p99: lowQuartile(p99s),
		wholeP50: quantile(all, 0.50), wholeP99: quantile(all, 0.99),
		samples: len(all), subs: len(rates),
	}
	return st, nil
}

// runFirehose is the serve_firehose workload. The traced pass splits
// its budget over three arms — the plain assembly, the traced one, and
// one with the registry, a debug endpoint and a polling monitor on — so
// the tracing overhead and the observer effect are ratios of windows
// measured in the same process.
func runFirehose(c *runCtx) (*runResult, error) {
	out := newRunResult()
	dur := c.seconds
	if c.tr != nil {
		dur = c.seconds / 6
	}
	arm, err := runFirehoseArm(c, dur, nil, nil)
	if err != nil {
		return nil, err
	}
	cr, acct := arm.cr, arm.acct
	st, err := summarizeClosed(cr)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = acct.clientSubmitted, acct.clientUnfinished
	out.set("setup_s", arm.setup)
	out.notef("setup_s: cluster bring-up + client dial + the warm-up's first %d completions (%v)", c.sz.firehoseWarm, cr.warm.Round(time.Millisecond))
	out.set("throughput_per_s", st.jobsPerS)
	out.set("latency_mid_ms", st.p50)
	out.set("latency_tail_ms", st.p90)
	out.set("overhead_per_work", float64(acct.res.Messages())/float64(acct.clientCompleted))
	out.notef("closed loop, %d connections × %d outstanding for %v: %d jobs submitted, %d completed, %d unfinished",
		clientConns, firehoseWindow, dur, acct.clientSubmitted, acct.clientCompleted, acct.clientUnfinished)
	out.notef("throughput_per_s / latency_mid_ms / latency_tail_ms: upper quartile of jobs/s, lower quartiles of p50 and p90 sojourn over %d sub-windows of %v (%d samples; whole-window p50 %.3f ms, p99 %.3f ms)",
		st.subs, cr.sub, st.samples, st.wholeP50, st.wholeP99)
	out.notef("overhead_per_work: %d cluster-link messages / %d completed jobs", acct.res.Messages(), acct.clientCompleted)
	if c.tr != nil {
		if err := firehoseLayers(c, out, st, dur); err != nil {
			return nil, err
		}
	}
	return out, nil
}
