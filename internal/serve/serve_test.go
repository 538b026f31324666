package serve

import (
	"bufio"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
	"lmbalance/internal/workload"
)

// testCluster is a small serving cluster for the end-to-end tests: 4
// nodes over real TCP links, each fronted by a Server, a 200µs service
// clock, deterministic seed. Every unit a node completes is counted and
// signalled on unitDone, so drain waits on completions, not on a clock.
type testCluster struct {
	servers  []*Server
	stop     chan struct{}
	result   chan error
	res      *cluster.Result
	units    atomic.Int64
	unitDone chan struct{}
}

func startCluster(t *testing.T, reg *obs.Registry, noBalance bool) *testCluster {
	t.Helper()
	const n = 4
	transports, err := wire.LocalTransports(n, false)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{stop: make(chan struct{}), result: make(chan error, 1), unitDone: make(chan struct{}, 1)}
	hooks := make([]*cluster.ServeHooks, n)
	for i := range hooks {
		s, err := NewServer(i, "127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		tc.servers = append(tc.servers, s)
		h := s.Hooks()
		hooks[i] = &cluster.ServeHooks{Ingest: h.Ingest, Complete: func(id uint64, j cluster.Journey) {
			h.Complete(id, j)
			tc.units.Add(1)
			select {
			case tc.unitDone <- struct{}{}:
			default:
			}
		}}
	}
	nodes, err := cluster.NewNodes(cluster.ClusterConfig{
		N: n, Delta: 1, F: 1.2, Steps: 1 << 30, // the run ends via Stop
		GenP: []float64{0}, ConP: []float64{1}, Seed: 42, Obs: reg,
		StepInterval: 200 * time.Microsecond, NoBalance: noBalance,
		Stop: tc.stop, ServePerNode: hooks,
	}, transports)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		var err error
		tc.res, err = cluster.RunNodes(nodes)
		tc.result <- err
	}()
	return tc
}

// addrs returns the client-facing addresses, indexed by node.
func (tc *testCluster) addrs() []string {
	out := make([]string, len(tc.servers))
	for i, s := range tc.servers {
		out[i] = s.Addr()
	}
	return out
}

// drain waits until the nodes have completed units units, then stops
// the cluster, closes the front-ends and returns the cluster's result
// and the servers' summed accounting. Stop must come after the drain:
// once it fires, nodes fast-forward into shutdown and unserved units
// would be stranded as held records.
func (tc *testCluster) drain(t *testing.T, units int64) (*cluster.Result, Stats) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for tc.units.Load() < units {
		select {
		case <-tc.unitDone:
		case <-timeout:
			t.Fatalf("%d of %d units completed", tc.units.Load(), units)
		}
	}
	close(tc.stop)
	if err := <-tc.result; err != nil {
		t.Fatal(err)
	}
	var st Stats
	for _, s := range tc.servers {
		x := s.Stats()
		st.JobsAccepted += x.JobsAccepted
		st.JobsCompleted += x.JobsCompleted
		st.UnitsAccepted += x.UnitsAccepted
		st.UnitsCompleted += x.UnitsCompleted
		st.DonesDropped += x.DonesDropped
		st.InflightUnits += x.InflightUnits
		s.Close()
	}
	return tc.res, st
}

// unitsOf sums a schedule's units of work.
func unitsOf(arrivals []workload.Arrival) (n int64) {
	for _, a := range arrivals {
		n += int64(a.Units)
	}
	return n
}

// waitGoroutines waits until the goroutine count is back at or below
// the baseline: every component joins its goroutines on Close, so the
// count falls as soon as the stragglers are scheduled.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 { // small slack for runtime-internal helpers
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
	}
}

// TestServeEndToEnd drives a skewed open-loop workload at a 4-node TCP
// cluster and audits the full accounting chain: every submission
// accepted, every unit completed, every CDone delivered, packet and
// job conservation intact at shutdown.
func TestServeEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()
	tc := startCluster(t, nil, false)

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

	res, err := Drive(tc.addrs(), arrivals, LoadSpec{HotFrac: 0.75, HotN: 1}, 11, 10*time.Second)
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

	cres, stats := tc.drain(t, unitsOf(arrivals))
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
	tc := startCluster(t, nil, false)
	addrs := tc.addrs()

	// The doomed client floods node 0 then vanishes without reading a
	// single completion.
	doomed, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	const doomedJobs = 200
	var flood []byte
	for i := 1; i <= doomedJobs; i++ {
		flood = wire.AppendCFrame(flood, wire.CMsg{Kind: wire.CSubmit, Job: uint64(i), Units: 3})
	}
	if _, err := doomed.Write(flood); err != nil {
		t.Fatal(err)
	}
	// Vanish only once the server has acknowledged every submission:
	// closing earlier makes the server's next CAccepted write draw a TCP
	// reset, which discards the submissions it had not read yet — then
	// "accepted" depends on how far the reader got, not on the server.
	br := bufio.NewReader(doomed)
	for acked := 0; acked < doomedJobs; {
		m, _, err := wire.ReadCFrame(br)
		if err != nil {
			t.Fatalf("after %d of %d acks: %v", acked, doomedJobs, err)
		}
		if m.Kind == wire.CAccepted {
			acked++
		}
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

	cres, stats := tc.drain(t, 3*doomedJobs+2*healthyJobs)
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
	tc := startCluster(t, nil, false)
	c, err := Dial(tc.addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 3000 // 3× ingestDepth
	for i := 0; i < jobs; i++ {
		if err := c.Submit(1); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	cres, stats := tc.drain(t, jobs)
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
		t.Fatal("trace generated no arrivals")
	}
	for _, a := range arrivals {
		if a.Node < 0 || a.Node >= n {
			t.Fatalf("trace arrival pinned out of range: %d", a.Node)
		}
	}

	tc := startCluster(t, nil, false)
	res, err := Drive(tc.addrs(), arrivals, LoadSpec{}, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Errorf("completed %d of %d replayed jobs", res.Completed, res.Submitted)
	}
	cres, _ := tc.drain(t, unitsOf(arrivals))
	if !cres.Conserved() || !cres.JobsConserved() {
		t.Error("conservation violated on trace replay")
	}
}

// TestServeNoBalanceStillCompletes checks the control arm: with
// balancing off, a hot node must still finish its backlog alone.
func TestServeNoBalanceStillCompletes(t *testing.T) {
	tc := startCluster(t, nil, true)
	c, err := Dial(tc.addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Submit(2); err != nil {
			t.Fatal(err)
		}
	}
	cres, stats := tc.drain(t, 200)
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

// TestJourneyDecomposition drives the quick cluster with a registry and
// audits the tentpole invariant of journey tracing: every completed
// unit's sojourn decomposes into ingest_wait + queue + transfer +
// service, so the component histograms' sums must add up to the
// per-unit sojourn histogram's sum (within a clamping tolerance), the
// hops histogram must hold one observation per job, and the /jobs ring
// must hold samples whose own components sum to their sojourn.
func TestJourneyDecomposition(t *testing.T) {
	reg := obs.NewRegistry()
	tc := startCluster(t, reg, false)
	arrivals, err := workload.ArrivalSpec{
		Env:     workload.RateEnvelope{{Dur: 300 * time.Millisecond, Rate: 800}},
		Demand:  workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 20},
		Horizon: 300 * time.Millisecond,
	}.Schedule(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(tc.addrs(), arrivals, LoadSpec{HotFrac: 0.75, HotN: 1}, 11, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tc.drain(t, unitsOf(arrivals))

	var compSum, unitSum float64
	var unitCount, hopJobs, ringTotal int64
	for i, s := range tc.servers {
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
	for _, s := range tc.servers {
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
	const jobs = 5

	// Nobody drains s.ingest here (no node attached): submissions pile
	// up in the channel and the high-water mark must track the depth.
	c, far := bareConn(jobs)
	defer far.Close()
	for i := 1; i <= jobs; i++ {
		if !s.submit(c, wire.CMsg{Kind: wire.CSubmit, Job: uint64(i), Units: 1}) {
			t.Fatal("open server refused a submission")
		}
	}
	if hwm := reg.Gauge(`serve_ingest_hwm{node="3"}`).Value(); hwm != jobs {
		t.Fatalf("ingest HWM %d after %d undrained submissions", hwm, jobs)
	}

	// Completion drops: complete a job whose client connection is dead.
	// The CDone has nowhere to go; the registered counter must see it.
	sub := <-s.ingest
	c.close()
	s.complete(sub.ID, cluster.Journey{})
	if got := reg.Counter(`serve_dones_dropped_total{node="3"}`).Value(); got != 1 {
		t.Fatalf("done-drop counter %d after completing for a dead client, want 1", got)
	}
}
