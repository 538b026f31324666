package serve

import (
	"runtime"
	"testing"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/workload"
)

// quickSpec is a small, fast serving cluster for the e2e tests: 4
// nodes over real TCP, a 200µs service clock, deterministic seed.
func quickSpec(noBalance bool) ClusterSpec {
	return ClusterSpec{
		N: 4, Delta: 1, F: 1.2,
		ConP:         1.0,
		StepInterval: 200 * time.Microsecond,
		Seed:         42,
		NoBalance:    noBalance,
	}
}

// waitGoroutines polls until the goroutine count is back at or below
// the baseline (the runtime retires netpoll helpers lazily).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 { // small slack for runtime-internal helpers
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeEndToEnd drives a skewed open-loop workload at a 4-node TCP
// cluster and audits the full accounting chain: every submission
// accepted, every unit completed, every CDone delivered, packet and
// job conservation intact at shutdown.
func TestServeEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()
	sc, err := StartServeCluster(quickSpec(false))
	if err != nil {
		t.Fatal(err)
	}

	env := workload.RateEnvelope{
		{Dur: 150 * time.Millisecond, Rate: 600},
		{Dur: 100 * time.Millisecond, Rate: 1200},
	}
	spec := workload.ArrivalSpec{
		Env:     env,
		Demand:  workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 20},
		Horizon: 500 * time.Millisecond,
	}
	arrivals, err := spec.Schedule(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) == 0 {
		t.Fatal("empty schedule")
	}

	res, err := Drive(sc.Addrs(), arrivals, LoadSpec{HotFrac: 0.75, HotN: 1}, 11, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Errorf("completed %d of %d submitted", res.Completed, res.Submitted)
	}
	if len(res.Sojourns) != int(res.Completed) {
		t.Errorf("%d sojourns for %d completions", len(res.Sojourns), res.Completed)
	}
	for _, s := range res.Sojourns {
		if s < 0 {
			t.Fatalf("negative sojourn %v", s)
		}
	}

	cres, stats, err := sc.DrainAndStop(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.JobsAccepted != res.Submitted {
		t.Errorf("servers accepted %d jobs, clients submitted %d", stats.JobsAccepted, res.Submitted)
	}
	if stats.UnitsCompleted != stats.UnitsAccepted {
		t.Errorf("units completed %d != accepted %d", stats.UnitsCompleted, stats.UnitsAccepted)
	}
	if stats.InflightUnits != 0 {
		t.Errorf("in-flight units %d at shutdown", stats.InflightUnits)
	}
	if stats.DonesDropped != 0 {
		t.Errorf("%d CDones dropped with healthy clients", stats.DonesDropped)
	}
	if !cres.Conserved() {
		t.Error("packet conservation violated")
	}
	if !cres.JobsConserved() {
		t.Errorf("job conservation violated: ingested %d, done %d, held %d",
			cres.Ingested(), cres.UnitsDone(), cres.RecordsHeld())
	}
	if cres.Ingested() != stats.UnitsAccepted {
		t.Errorf("cluster ingested %d, servers accepted %d units", cres.Ingested(), stats.UnitsAccepted)
	}
	if cres.TotalLoad() != 0 {
		t.Errorf("residual load %d after drain", cres.TotalLoad())
	}

	waitGoroutines(t, before)
}

// TestServeClientDisconnect kills a client mid-stream: its accepted
// jobs must still run to completion server-side (their CDones dropped,
// counted), conservation must hold, and nothing may leak.
func TestServeClientDisconnect(t *testing.T) {
	before := runtime.NumGoroutine()
	sc, err := StartServeCluster(quickSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	addrs := sc.Addrs()

	// The doomed client floods node 0 then vanishes without reading a
	// single completion.
	doomed, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	const doomedJobs = 200
	for i := 0; i < doomedJobs; i++ {
		if err := doomed.Submit(3); err != nil {
			t.Fatalf("doomed submit %d: %v", i, err)
		}
	}
	// Vanish only once the server has read every submission: closing
	// earlier makes the server's next CAccepted write draw a TCP reset,
	// which discards the submissions it had not read yet — then "accepted"
	// depends on how far the reader got, not on the server.
	for deadline := time.Now().Add(10 * time.Second); doomed.Accepted() < doomedJobs; {
		if time.Now().After(deadline) {
			t.Fatalf("server acknowledged %d of %d doomed jobs", doomed.Accepted(), doomedJobs)
		}
		time.Sleep(time.Millisecond)
	}
	if err := doomed.Close(); err != nil {
		t.Fatal(err)
	}

	// A healthy client keeps the cluster honest on another node.
	healthy, err := Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	const healthyJobs = 50
	for i := 0; i < healthyJobs; i++ {
		if err := healthy.Submit(2); err != nil {
			t.Fatalf("healthy submit %d: %v", i, err)
		}
	}

	cres, stats, err := sc.DrainAndStop(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(doomedJobs + healthyJobs); stats.JobsAccepted != want {
		t.Errorf("accepted %d jobs, want %d", stats.JobsAccepted, want)
	}
	// Every unit completes even though most completions had no client
	// left to hear about them.
	if stats.UnitsCompleted != stats.UnitsAccepted {
		t.Errorf("units completed %d != accepted %d", stats.UnitsCompleted, stats.UnitsAccepted)
	}
	if stats.JobsCompleted != stats.JobsAccepted {
		t.Errorf("jobs completed %d != accepted %d", stats.JobsCompleted, stats.JobsAccepted)
	}
	if !cres.Conserved() || !cres.JobsConserved() {
		t.Errorf("conservation violated after disconnect: packets=%v jobs=%v",
			cres.Conserved(), cres.JobsConserved())
	}
	if got := healthy.Completed(); got != healthyJobs {
		t.Errorf("healthy client saw %d completions, want %d", got, healthyJobs)
	}
	if err := healthy.Close(); err != nil {
		t.Fatal(err)
	}

	waitGoroutines(t, before)
}

// TestServeBackpressureSmallQueue exercises the blocking ingest path:
// a burst far larger than the ingest buffer must be absorbed without
// loss (the reader blocks, TCP pushes back, everything completes).
func TestServeBackpressureBurst(t *testing.T) {
	before := runtime.NumGoroutine()
	sc, err := StartServeCluster(quickSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sc.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 3000 // 3× ingestDepth
	for i := 0; i < jobs; i++ {
		if err := c.Submit(1); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	cres, stats, err := sc.DrainAndStop(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UnitsCompleted != jobs {
		t.Errorf("completed %d units, want %d", stats.UnitsCompleted, jobs)
	}
	if !cres.Conserved() || !cres.JobsConserved() {
		t.Error("conservation violated under burst")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestServeTraceReplay replays a deterministic tracefile schedule
// through the serving path: pinned arrivals land on their recorded
// nodes and the whole trace completes.
func TestServeTraceReplay(t *testing.T) {
	const n, steps = 4, 300
	r := rng.New(99)
	var events []workload.TraceEvent
	for p := 0; p < n; p++ {
		for s := 0; s < steps; s++ {
			if r.Bernoulli(0.3) {
				events = append(events, workload.TraceEvent{Step: s, Proc: p, Action: workload.Generate})
			}
		}
	}
	tr, err := workload.NewTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.TraceArrivals(tr, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) == 0 {
		t.Skip("trace generated no arrivals")
	}
	for _, a := range arrivals {
		if a.Node < 0 || a.Node >= n {
			t.Fatalf("trace arrival pinned out of range: %d", a.Node)
		}
	}

	sc, err := StartServeCluster(quickSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(sc.Addrs(), arrivals, LoadSpec{}, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Errorf("completed %d of %d replayed jobs", res.Completed, res.Submitted)
	}
	cres, _, err := sc.DrainAndStop(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Conserved() || !cres.JobsConserved() {
		t.Error("conservation violated on trace replay")
	}
}

// TestServeNoBalanceStillCompletes checks the control arm: with
// balancing off, a hot node must still finish its backlog alone.
func TestServeNoBalanceStillCompletes(t *testing.T) {
	sc, err := StartServeCluster(quickSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sc.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Submit(2); err != nil {
			t.Fatal(err)
		}
	}
	cres, stats, err := sc.DrainAndStop(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UnitsCompleted != 200 {
		t.Errorf("completed %d units, want 200", stats.UnitsCompleted)
	}
	if !cres.Conserved() || !cres.JobsConserved() {
		t.Error("conservation violated with balancing off")
	}
	// Balancing never ran, so nothing migrated: every unit was done
	// locally on node 0.
	if cres.Nodes[0].UnitsDone != 200 {
		t.Errorf("node 0 completed %d units locally, want 200", cres.Nodes[0].UnitsDone)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSpecTarget checks the hot-node policy's arithmetic.
func TestLoadSpecTarget(t *testing.T) {
	r := rng.New(5)
	const n = 8
	spec := LoadSpec{HotFrac: 0.7, HotN: 2}
	hot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		tgt := spec.Target(r, n)
		if tgt < 0 || tgt >= n {
			t.Fatalf("target %d out of range", tgt)
		}
		if tgt < spec.HotN {
			hot++
		}
	}
	frac := float64(hot) / draws
	if frac < 0.65 || frac > 0.75 {
		t.Errorf("hot fraction %.3f, want ≈0.70", frac)
	}
	// Degenerate specs fall back to uniform.
	uni := LoadSpec{}
	for i := 0; i < 100; i++ {
		if tgt := uni.Target(r, n); tgt < 0 || tgt >= n {
			t.Fatalf("uniform target %d out of range", tgt)
		}
	}
}

// TestQuantile pins the exact-quantile helper.
func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

var _ = cluster.JobOp // keep the cluster import honest if tests shrink

// TestJourneyDecomposition drives the quick cluster with a registry and
// audits the tentpole invariant of journey tracing: every completed
// unit's sojourn decomposes into ingest_wait + queue + transfer +
// service, so the component histograms' sums must add up to the
// per-unit sojourn histogram's sum (within a clamping tolerance), the
// hops histogram must hold one observation per job, and the /jobs ring
// must hold samples whose own components sum to their sojourn.
func TestJourneyDecomposition(t *testing.T) {
	reg := obs.NewRegistry()
	spec := quickSpec(false)
	spec.Obs = reg
	sc, err := StartServeCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.ArrivalSpec{
		Env:     workload.RateEnvelope{{Dur: 300 * time.Millisecond, Rate: 800}},
		Demand:  workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 20},
		Horizon: 300 * time.Millisecond,
	}.Schedule(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(sc.Addrs(), arrivals, LoadSpec{HotFrac: 0.75, HotN: 1}, 11, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.DrainAndStop(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	var compSum, unitSum float64
	var unitCount, hopJobs, ringTotal int64
	for i, s := range sc.Servers {
		unit := reg.Histogram(UnitSojournMetric(i), obs.SojournBuckets)
		unitCount += unit.Count()
		unitSum += unit.Sum()
		for _, c := range []string{"ingest_wait", "queue", "transfer", "service"} {
			h := reg.Histogram(JourneyMetric(i, c), obs.SojournBuckets)
			if h.Count() != unit.Count() {
				t.Errorf("node %d %s: %d observations, unit sojourn has %d", i, c, h.Count(), unit.Count())
			}
			compSum += h.Sum()
		}
		hopJobs += reg.Histogram(HopsMetric(i), HopBuckets).Count()
		ringTotal += s.Journeys().Total()
	}
	if unitCount == 0 {
		t.Fatal("no units observed in the journey histograms")
	}
	if hopJobs != res.Completed {
		t.Errorf("hops histogram holds %d jobs, %d completed", hopJobs, res.Completed)
	}
	if ringTotal != res.Completed {
		t.Errorf("journey rings saw %d jobs, %d completed", ringTotal, res.Completed)
	}
	// The components must reconstruct the per-unit sojourn: the split is
	// exact by construction, up to the zero-clamp against clock skew.
	if rel := (compSum - unitSum) / unitSum; rel < -0.05 || rel > 0.05 {
		t.Errorf("component sum %.4fs vs unit sojourn sum %.4fs (rel %.3f), decomposition broken",
			compSum, unitSum, rel)
	}

	// Ring samples: sane shapes, components close to the job sojourn for
	// single-unit stamped jobs.
	for _, s := range sc.Servers {
		for _, j := range s.Journeys().Snapshot() {
			if !j.Stamped {
				t.Fatalf("unstamped journey from a serving cluster: %+v", j)
			}
			if j.Sojourn < 0 || j.IngestWait < 0 || j.Queue < 0 || j.Transfer < 0 || j.Service < 0 {
				t.Fatalf("negative journey field: %+v", j)
			}
			if j.Units == 1 {
				sum := j.IngestWait + j.Queue + j.Transfer + j.Service
				if diff := sum - j.Sojourn; diff < -0.01 || diff > 0.01 {
					t.Errorf("single-unit journey components sum %.6fs vs sojourn %.6fs: %+v", sum, j.Sojourn, j)
				}
			}
		}
	}
}

// TestIngestHWMAndDropCounterRegistered is the regression test for the
// serve-layer pressure metrics: the ingest-channel high-water mark and
// the completion-drop counter must be registered, visible in /metrics
// form, and move when the respective pressure occurs.
func TestIngestHWMAndDropCounterRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewServer(3, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Nobody drains s.ingest here (no node attached): submissions pile
	// up in the channel and the high-water mark must track the depth.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const jobs = 5
	for i := 0; i < jobs; i++ {
		if err := c.Submit(1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge(`serve_ingest_hwm{node="3"}`).Value() < jobs {
		if time.Now().After(deadline) {
			t.Fatalf("ingest HWM %d after %d undrained submissions",
				reg.Gauge(`serve_ingest_hwm{node="3"}`).Value(), jobs)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Completion drops: complete a job whose client connection is dead.
	// The CDone has nowhere to go; the registered counter must see it.
	var sub cluster.Submit
	select {
	case sub = <-s.ingest:
	case <-time.After(2 * time.Second):
		t.Fatal("submission never reached the ingest channel")
	}
	s.mu.Lock()
	conn := s.jobs[sub.ID].conn
	s.mu.Unlock()
	c.Close()
	select {
	case <-conn.dead: // server has noticed the disconnect
	case <-time.After(5 * time.Second):
		t.Fatal("server never noticed the client disconnect")
	}
	s.complete(sub.ID, cluster.Journey{})
	if got := reg.Counter(`serve_dones_dropped_total{node="3"}`).Value(); got != 1 {
		t.Fatalf("done-drop counter %d after completing for a dead client, want 1", got)
	}
}
