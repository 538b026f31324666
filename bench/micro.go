package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lmbalance"
	"lmbalance/internal/cluster"
	"lmbalance/internal/core"
	"lmbalance/internal/flight"
	"lmbalance/internal/netsim"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/serve"
	"lmbalance/internal/topology"
	"lmbalance/internal/wire"
)

// The isolated-call timings of the traced pass: one layer's public
// function in a loop, nothing else running. They are workload-
// independent and run in every traced pass, in a fixed share of the
// budget.

const microReps = 5

// sink keeps measured results alive so the calls are not optimised out.
var sink int

// timeOp returns the median over microReps batches of op's cost per
// iteration, in nanoseconds. op(n) performs n iterations. The batch
// size is calibrated once so a batch lasts about slot.
func timeOp(slot time.Duration, op func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		op(n)
		d := time.Since(start)
		if d >= slot/4 || n >= 1<<28 {
			if d > 0 && d < slot {
				n = int(float64(n) * float64(slot) / float64(d))
			}
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	per := make([]float64, microReps)
	for i := range per {
		start := time.Now()
		op(n)
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// allocsPer returns heap allocations per iteration of op(n).
func allocsPer(n int, op func(n int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	op(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// protocolMix is one balancing operation's frames plus shutdown traffic
// (the mix results/BENCH_wire.json was recorded with), with a typical
// in-flight operation id.
var protocolMix = func() []wire.Msg {
	ms := []wire.Msg{
		{Kind: wire.FreezeReq, From: 3, Seq: 17},
		{Kind: wire.FreezeAck, From: 9, Seq: 17, Load: 128},
		{Kind: wire.Transfer, From: 3, Seq: 17, Amount: -42},
		{Kind: wire.TransferAck, From: 9, Seq: 17},
		{Kind: wire.Release, From: 3, Seq: 18},
		{Kind: wire.Bye, From: 9, Load: 64, Gen: 100000, Con: 99936},
	}
	for i := range ms {
		ms[i].Op = 0xdeadbeef
	}
	return ms
}()

// jobMove16 is a journey-stamped 16-record JobMove as the serving path
// emits it mid-balancing.
func jobMove16() wire.Msg {
	now := int64(1_700_000_000_000_000_000)
	m := wire.Msg{Kind: wire.JobMove, From: 3, Seq: 17, Op: 0xdeadbeef, SentNS: now}
	for i := 0; i < 16; i++ {
		m.Jobs = append(m.Jobs, wire.JobRef{
			Origin: i % 8, ID: uint64(1000 + i),
			IngestNS: now - int64(i+1)*300_000, Hops: i % 3, TransferNS: int64(i) * 40_000,
		})
	}
	return m
}

// drain empties a transport's inbox until stop is closed.
func drain(in <-chan wire.Msg, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-in:
		case <-stop:
			return
		}
	}
}

func microWire(out *runResult, slot time.Duration) error {
	var buf []byte
	out.set("wire.encode_ns", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendFrame(buf[:0], protocolMix[i%len(protocolMix)])
		}
	}))
	payloads := make([][]byte, len(protocolMix))
	for i, m := range protocolMix {
		payloads[i] = wire.AppendMsg(nil, m)
	}
	var decErr error
	out.set("wire.decode_ns", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			m, err := wire.DecodeMsg(payloads[i%len(payloads)])
			if err != nil {
				decErr = err
			}
			sink += m.Load
		}
	}))
	jm := jobMove16()
	out.set("wire.jobmove16_encode_ns", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendMsg(buf[:0], jm)
		}
	}))
	jmPayload := wire.AppendMsg(nil, jm)
	out.set("wire.jobmove16_decode_ns", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			m, err := wire.DecodeMsg(jmPayload)
			if err != nil {
				decErr = err
			}
			sink += len(m.Jobs)
		}
	}))
	if decErr != nil {
		return fmt.Errorf("wire decode: %w", decErr)
	}

	// Client frame: encode, then read back through a bufio.Reader as both
	// ends of a client connection do.
	cm := wire.CMsg{Kind: wire.CDone, Job: 123456, SubmitNS: 1_700_000_000_000_000_000, DoneNS: 1_700_000_000_001_000_000}
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	cframe := func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendCFrame(buf[:0], cm)
			rd.Reset(buf)
			br.Reset(&rd)
			m, _, err := wire.ReadCFrame(br)
			if err != nil {
				decErr = err
			}
			sink += int(m.Job)
		}
	}
	out.set("wire.cframe_roundtrip_ns", timeOp(slot, cframe))
	frame := func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendFrame(buf[:0], protocolMix[i%len(protocolMix)])
			rd.Reset(buf)
			br.Reset(&rd)
			m, _, err := wire.ReadFrame(br)
			if err != nil {
				decErr = err
			}
			sink += m.Load
		}
	}
	frame(64) // grow buf before counting
	out.set("wire.allocs_per_frame", allocsPer(4096, frame))
	if decErr != nil {
		return fmt.Errorf("wire framed read: %w", decErr)
	}

	// Loopback send, raw and through a flight-recorder tap.
	raw, _, err := loopbackSend(slot, "")
	if err != nil {
		return err
	}
	out.set("wire.loopback_send_ns", raw)
	return nil
}

// loopbackSend times LoopEndpoint.Send → peer inbox on a 2-endpoint
// loopback with the peer drained; with tapDir set the sender goes
// through a flight-recorder tap writing there.
func loopbackSend(slot time.Duration, tapDir string) (ns, allocs float64, err error) {
	lnet := wire.NewLoopback(2)
	var tr wire.Transport = lnet.Transport(0)
	peer := lnet.Transport(1)
	var rec *flight.Recorder
	if tapDir != "" {
		// A deep buffer so the hot path measures the encode + hand-off it
		// always pays, not the drop path once the writer lags.
		rec, err = flight.Open(flight.Options{Dir: tapDir, Node: 0, Buffer: 1 << 16})
		if err != nil {
			return 0, 0, err
		}
		tr = rec.Tap(tr)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go drain(peer.Inbox(), stop, done)
	m := wire.Msg{Kind: wire.FreezeReq, From: 0, Seq: 7, Op: 0x1c0000000001, Load: 41}
	var sendErr error
	send := func(n int) {
		for i := 0; i < n; i++ {
			if err := tr.Send(1, m); err != nil {
				sendErr = err
			}
		}
	}
	ns = timeOp(slot, send)
	allocs = allocsPer(4096, send)
	tr.Close()
	peer.Close()
	close(stop)
	<-done
	if rec != nil {
		if err := rec.Close(); err != nil {
			return 0, 0, err
		}
	}
	return ns, allocs, sendErr
}

// microTCP times the TCP transport three ways between two endpoints on
// the host's loopback interface: the caller-side cost of Send, a
// ping-pong's one-way time, and a saturated one-way stream.
func microTCP(out *runResult, slot time.Duration) error {
	ts, err := wire.NewLocalCluster(2)
	if err != nil {
		return err
	}
	a, b := ts[0], ts[1]
	defer a.Close()
	defer b.Close()
	m := wire.Msg{Kind: wire.FreezeReq, From: 0, Seq: 7, Op: 0x1c0000000001, Load: 41}

	// Ping-pong: b echoes every frame; one-way = round trip / 2.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case in := <-b.Inbox():
				in.From = 1
				b.Send(0, in)
			case <-stop:
				return
			}
		}
	}()
	rtt := timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			a.Send(1, m)
			<-a.Inbox()
		}
	})
	close(stop)
	<-done
	out.set("wire.tcp_oneway_us", rtt/2/1e3)

	// Stream: a sends as fast as Send returns, b counts arrivals.
	stop, done = make(chan struct{}), make(chan struct{})
	go drain(b.Inbox(), stop, done)
	out.set("wire.tcp_send_ns", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			a.Send(1, m)
		}
	}))
	close(stop)
	<-done
	before := b.Stats().MsgsRecv
	start := time.Now()
	stop, done = make(chan struct{}), make(chan struct{})
	go drain(b.Inbox(), stop, done)
	for time.Since(start) < slot*microReps {
		for i := 0; i < 256; i++ {
			a.Send(1, m)
		}
	}
	got := b.Stats().MsgsRecv - before
	elapsed := time.Since(start)
	close(stop)
	<-done
	out.set("wire.tcp_stream_msgs_per_s", float64(got)/elapsed.Seconds())
	return nil
}

func microCore(out *runResult, slot time.Duration) error {
	const n = 4096
	for _, d := range []int{1, 4} {
		s, err := core.NewSystem(n, core.Params{F: 1.1, Delta: d, C: 4}, topology.NewGlobal(n), rng.New(1))
		if err != nil {
			return err
		}
		for i := 0; i < n*8; i++ {
			s.Generate(i % n)
		}
		k := 0
		op := func(m int) {
			for i := 0; i < m; i++ {
				s.ForceBalance(k % n)
				k++
			}
		}
		out.set(fmt.Sprintf("core.balance_op_ns.d%d", d), timeOp(slot, op))
		if d == 1 {
			out.set("core.allocs_per_op", allocsPer(4096, op))
		}
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("core after balance micro: %w", err)
		}
	}
	s, err := core.NewSystem(n, simParams, topology.NewGlobal(n), rng.New(1))
	if err != nil {
		return err
	}
	for i := 0; i < n*4; i++ {
		s.Generate(i % n)
	}
	k := 0
	out.set("core.gen_consume_ns", timeOp(slot, func(m int) {
		for i := 0; i < m; i++ {
			s.Generate(k % n)
			s.Consume(k % n)
			k++
		}
	}))
	sel := topology.NewGlobal(fullSizes.simN)
	r := rng.New(1)
	var newErr error
	out.set("core.new_system_ms", timeOp(slot, func(m int) {
		for i := 0; i < m; i++ {
			if _, err := core.NewSystem(fullSizes.simN, simParams, sel, r); err != nil {
				newErr = err
			}
		}
	})/1e6)
	return newErr
}

func microSim(out *runResult, slot time.Duration) error {
	// The dense engine on the paper's §7 configuration (n = 64, 500
	// steps): the same core used small and dense.
	var runErr error
	seed := uint64(0)
	perRun := timeOp(slot, func(m int) {
		for i := 0; i < m; i++ {
			seed++
			if _, err := lmbalance.SimulatePaper(lmbalance.DefaultParams(), 1, seed); err != nil {
				runErr = err
			}
		}
	})
	if runErr != nil {
		return fmt.Errorf("paper run: %w", runErr)
	}
	out.set("sim.paper_runs_per_s", 1e9/perRun)

	// The goroutine-per-node message simulator at a fixed seed. Its
	// per-node statistics depend on goroutine scheduling, so there is no
	// digest to compare; exact packet conservation is its output check.
	cfg := netsim.Config{N: 32, Delta: 1, F: 1.2, Steps: 2000, GenP: []float64{0.6}, ConP: []float64{0.4}, Seed: 7}
	perNet := timeOp(slot, func(m int) {
		for i := 0; i < m; i++ {
			res, err := netsim.Run(cfg)
			if err != nil {
				runErr = err
				return
			}
			if !res.Conserved() {
				runErr = fmt.Errorf("packet conservation violated")
			}
		}
	})
	if runErr != nil {
		return fmt.Errorf("netsim: %w", runErr)
	}
	out.set("netsim.proc_steps_per_s", float64(cfg.N*cfg.Steps)/(perNet/1e9))
	return nil
}

func microObs(out *runResult, slot time.Duration) error {
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_counter")
	out.set("obs.counter_inc_ns", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	}))
	h := reg.Histogram("bench_hist", obs.LatencyBuckets)
	out.set("obs.hist_observe_ns", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(1e-4)
		}
	}))
	var none *obs.Registry
	off := none.Counter("off")
	out.set("obs.disabled_ns", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			off.Inc()
		}
	}))

	// One /metrics render of a 4-node serving registry, filled the way a
	// run fills it.
	sreg := obs.NewRegistry()
	for node := 0; node < 4; node++ {
		sreg.Gauge(fmt.Sprintf(`cluster_node_load{node="%d"}`, node)).Set(int64(10 + node))
		hs := []*obs.Histogram{
			sreg.Histogram(serve.SojournMetric(node), obs.SojournBuckets),
			sreg.Histogram(serve.UnitSojournMetric(node), obs.SojournBuckets),
		}
		for _, comp := range []string{"ingest_wait", "queue", "transfer", "service"} {
			hs = append(hs, sreg.Histogram(serve.JourneyMetric(node, comp), obs.SojournBuckets))
		}
		for _, hh := range hs {
			for i := 0; i < 500; i++ {
				hh.Observe(float64(i%97+1) * 50e-6)
			}
		}
	}
	collectPhase(sreg).Observe(1e-4)
	var scrapeErr error
	out.set("obs.metrics_scrape_ms", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			w := httptest.NewRecorder()
			if err := sreg.WritePrometheus(w); err != nil {
				scrapeErr = err
			}
			sink += w.Body.Len()
		}
	})/1e6)
	return scrapeErr
}

// microFlight measures the recorder: the tap's marginal cost per sent
// frame, and — on a recorded 4-node loopback cluster run — segment
// density, offline replay rate and overflow drops.
func microFlight(c *runCtx, out *runResult, slot time.Duration) error {
	root := filepath.Join(c.outDir, "flight-tmp")
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	defer os.RemoveAll(root)
	tapped, allocs, err := loopbackSend(slot, filepath.Join(root, "tap"))
	if err != nil {
		return fmt.Errorf("tapped send: %w", err)
	}
	out.set("flight.tap_send_ns", tapped-out.values["wire.loopback_send_ns"])
	out.set("flight.tap_allocs_per_frame", allocs)

	const nodes = 4
	steps := 20000
	if c.sz.simN < fullSizes.simN { // smoke sizes
		steps = 500
	}
	lnet := wire.NewLoopback(nodes)
	recs := make([]*flight.Recorder, nodes)
	transports := make([]wire.Transport, nodes)
	for i := range recs {
		rec, err := flight.Open(flight.Options{
			Dir: filepath.Join(root, "run", fmt.Sprintf("node-%d", i)), Node: i,
			MaxBytes: 64 << 20, // keep the whole run: this measures density, not the ring
			Buffer:   1 << 15,
		})
		if err != nil {
			return err
		}
		recs[i] = rec
		transports[i] = rec.Tap(lnet.Transport(i))
	}
	res, err := cluster.RunCluster(cluster.ClusterConfig{
		N: nodes, Delta: clusterDelta, F: 2, Steps: steps, Seed: c.seed, Flight: recs,
	}, transports)
	if err != nil {
		return fmt.Errorf("recorded run: %w", err)
	}
	if err := checkStorm(res); err != nil {
		return fmt.Errorf("recorded run: %w", err)
	}
	var dropped int64
	for _, rec := range recs {
		if err := rec.Close(); err != nil {
			return err
		}
		dropped += rec.Dropped()
	}
	start := time.Now()
	recording, err := flight.LoadTree(filepath.Join(root, "run"))
	if err != nil {
		return fmt.Errorf("load recording: %w", err)
	}
	audit := flight.Audit(recording)
	elapsed := time.Since(start)
	if audit.First != nil {
		return fmt.Errorf("recorded run replayed dirty: %v", *audit.First)
	}
	var events int
	var bytes int64
	for _, nr := range recording.Nodes {
		events += len(nr.Events)
		bytes += nr.Bytes
	}
	if events == 0 {
		return fmt.Errorf("recorded run left no events")
	}
	out.set("flight.bytes_per_event", float64(bytes)/float64(events))
	out.set("flight.replay_events_per_s", float64(events)/elapsed.Seconds())
	out.set("flight.dropped_records", float64(dropped))
	return nil
}

// microServe times the caller side of serve.Client.Submit against a
// live front-end whose ingest stream is drained by a stand-in node.
func microServe(out *runResult, slot time.Duration) error {
	srv, err := serve.NewServer(0, "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	hooks := srv.Hooks()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case s := <-hooks.Ingest:
				for u := 0; u < s.Units; u++ {
					now := time.Now().UnixNano()
					hooks.Complete(s.ID, cluster.Journey{IngestNS: now, ConsumeNS: now, DoneNS: now})
				}
			case <-stop:
				return
			}
		}
	}()
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		close(stop)
		<-done
		srv.Close()
		return err
	}
	var subErr error
	out.set("serve.submit_call_ns", timeOp(slot, func(n int) {
		for i := 0; i < n; i++ {
			if err := cl.Submit(1); err != nil {
				subErr = err
			}
		}
	}))
	// Every submission must reach the stand-in node and complete; the
	// CDone stream back is lossy by design when the client floods, so
	// the front-end's own counters are the check.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().JobsCompleted < cl.Submitted() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lost := cl.Submitted() - srv.Stats().JobsCompleted
	cl.Close()
	close(stop)
	<-done
	srv.Close()
	if subErr != nil {
		return fmt.Errorf("submit: %w", subErr)
	}
	if lost != 0 {
		return fmt.Errorf("submit micro: %d of %d jobs never completed", lost, cl.Submitted())
	}
	return nil
}

// microLayers runs every isolated-call timing inside about 40 % of the
// run's budget and finishes the metrics that combine a timing with a
// workload figure.
func microLayers(c *runCtx, out *runResult) error {
	const timings = 26 // timeOp calls below, for sizing a slot
	slot := time.Duration(float64(c.seconds) * 0.4 / (timings * (microReps + 1)))
	if err := microWire(out, slot); err != nil {
		return err
	}
	if err := microTCP(out, slot); err != nil {
		return err
	}
	if err := microCore(out, slot); err != nil {
		return err
	}
	if err := microSim(out, slot); err != nil {
		return err
	}
	if err := microObs(out, slot); err != nil {
		return err
	}
	if err := microServe(out, slot); err != nil {
		return err
	}
	if err := microFlight(c, out, slot); err != nil {
		return err
	}
	if perS, ok := out.values["_sim.balance_ops_per_wall_s"]; ok {
		out.set("sim.core_share", out.values["core.balance_op_ns.d1"]*1e-9*perS)
	}
	return nil
}
