package main

import (
	"fmt"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/serve"
)

// The per-layer metrics read off a traced workload run. Each function
// only sets the metrics its workload's path crosses; runOne reports the
// rest as 0.

// mergedHist sums same-shaped registry histograms across nodes.
type mergedHist struct {
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

func mergeHists(hs ...*obs.Histogram) mergedHist {
	var m mergedHist
	for _, h := range hs {
		b, c := h.Buckets()
		if m.bounds == nil {
			m.bounds, m.counts = b, make([]int64, len(c))
		}
		for i, v := range c {
			m.counts[i] += v
		}
		m.sum += h.Sum()
		m.n += h.Count()
	}
	return m
}

func (m mergedHist) quantile(q float64) float64 {
	if m.n == 0 {
		return 0
	}
	return bucketQuantile(m.bounds, m.counts, q)
}

func (m mergedHist) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// clusterLayers sets the cluster.* and wire.* metrics that come from the
// nodes' Results, their registries' collect-phase histograms and the
// transport wrappers, over one or more runs of the same cluster shape.
func clusterLayers(out *runResult, results []*cluster.Result, regs []*obs.Registry, links [][]*tracedTransport) {
	var initiated, completed, aborted, timeouts, expired, msgs, bytes, sendErrs, redials int64
	var wall float64
	var spreads []float64
	for _, r := range results {
		initiated += r.Initiated()
		completed += r.Completed()
		msgs += r.Messages()
		bytes += r.Bytes()
		wall += r.Elapsed.Seconds()
		spreads = append(spreads, float64(r.Spread()))
		for _, n := range r.Nodes {
			aborted += n.Aborted
			timeouts += n.Timeouts
			expired += n.FreezeExpired
			sendErrs += n.SendErrors
			redials += n.Redials
		}
	}
	var collect []*obs.Histogram
	for _, reg := range regs {
		collect = append(collect, collectPhase(reg))
	}
	opLat := mergeHists(collect...)
	var inbox, sendSelf lhist
	for _, run := range links {
		for _, l := range run {
			inbox.merge(&l.inboxWait)
			sendSelf.merge(&l.sendSelf)
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out.set("cluster.inbox_wait_p50_us", inbox.quantile(0.50)/1e3)
	out.set("cluster.inbox_wait_p99_us", inbox.quantile(0.99)/1e3)
	out.set("cluster.op_completion_ratio", ratio(completed, initiated))
	out.set("cluster.aborts_per_op", ratio(aborted, completed))
	out.set("cluster.timeouts", float64(timeouts))
	out.set("cluster.freeze_expired", float64(expired))
	out.set("cluster.op_latency_p50_us", opLat.quantile(0.50)*1e6)
	out.set("cluster.op_latency_p99_us", opLat.quantile(0.99)*1e6)
	out.set("cluster.bytes_per_op", ratio(bytes, completed))
	out.set("cluster.msgs_per_op", ratio(msgs, completed))
	out.set("cluster.final_spread", median(spreads))
	if wall > 0 {
		out.set("cluster.balance_ops_per_s", float64(completed)/wall)
	}
	out.set("wire.bytes_per_msg", ratio(bytes, msgs))
	out.set("wire.send_errors", float64(sendErrs))
	out.set("wire.redials", float64(redials))
	out.set("wire.send_self_p50_ns", sendSelf.quantile(0.50))
	out.notef("cluster: %d operations initiated, %d completed, %d aborted; %d frames in inbox-wait sample, %d in send sample",
		initiated, completed, aborted, inbox.n, sendSelf.n)
}

// serveLayers sets the serve.* metrics that come from the front-ends'
// registry (journey components, hops), their Stats and the hook
// wrappers of one serving cluster.
func serveLayers(out *runResult, sc *serveCluster, acct serveAccount) {
	reg, nodes := sc.reg, len(sc.servers)
	comp := func(name string) mergedHist {
		var hs []*obs.Histogram
		for i := 0; i < nodes; i++ {
			hs = append(hs, reg.Histogram(serve.JourneyMetric(i, name), obs.SojournBuckets))
		}
		return mergeHists(hs...)
	}
	iw, q, tr, sv := comp("ingest_wait"), comp("queue"), comp("transfer"), comp("service")
	out.set("serve.ingest_wait_p50_us", iw.quantile(0.50)*1e6)
	out.set("serve.ingest_wait_p99_us", iw.quantile(0.99)*1e6)
	out.set("serve.queue_p50_ms", q.quantile(0.50)*1e3)
	out.set("serve.queue_p99_ms", q.quantile(0.99)*1e3)
	out.set("serve.transfer_p50_us", tr.quantile(0.50)*1e6)
	out.set("serve.transfer_p99_us", tr.quantile(0.99)*1e6)
	out.set("serve.service_p50_ms", sv.quantile(0.50)*1e3)
	out.set("serve.service_p99_ms", sv.quantile(0.99)*1e3)

	var hops []*obs.Histogram
	var hwm int64
	for i := 0; i < nodes; i++ {
		hops = append(hops, reg.Histogram(serve.HopsMetric(i), serve.HopBuckets))
		if v := reg.Gauge(fmt.Sprintf(`serve_ingest_hwm{node="%d"}`, i)).Value(); v > hwm {
			hwm = v
		}
	}
	h := mergeHists(hops...)
	out.set("serve.hops_mean", h.mean())
	if h.n > 0 {
		out.set("serve.moved_job_share", 1-float64(h.counts[0])/float64(h.n)) // bucket 0 is "0 hops"
	}
	out.set("serve.completion_drops", float64(acct.srv.DonesDropped))
	out.set("serve.ingest_hwm", float64(hwm))
	if acct.clientCompleted > 0 {
		out.set("serve.bytes_per_job", float64(acct.res.Bytes())/float64(acct.clientCompleted))
	}
	var handoff, complete lhist
	for _, hk := range sc.hooks {
		handoff.merge(&hk.handoff)
		complete.merge(&hk.completeSelf)
	}
	out.set("serve.ingest_handoff_us", handoff.quantile(0.50)/1e3)
	out.set("serve.complete_call_ns", complete.quantile(0.50))
	out.set("cluster.shutdown_ms", acct.shutdown.Seconds()*1e3)
	out.notef("serve: journey components over %d stamped units; %d hand-offs and %d Complete calls timed", iw.n, handoff.n, complete.n)
}

// skewLayers reports the traced serve_skew pass: the ladder's other
// rungs, and the layer metrics of the r50 rung.
func skewLayers(c *runCtx, out *runResult, rungs map[string]*rungResult, bytes, jobsDone int64) {
	r25, r50, r75 := rungs["r25"], rungs["r50"], rungs["r75"]
	out.set("serve.sojourn_p99_ms", r50.p99)
	out.set("serve.sojourn_p50_ms.r25", r25.p50)
	out.set("serve.sojourn_p99_ms.r25", r25.p99)
	out.set("serve.sojourn_p50_ms.r75", r75.p50)
	out.set("serve.sojourn_p99_ms.r75", r75.p99)
	out.set("serve.slo_attainment.r75", r75.attainment())
	var sustained float64
	var late time.Duration
	for _, r := range []*rungResult{r25, r50, r75} {
		if r.sustained() {
			sustained = r.rate
		}
		if r.lateP99 > late {
			late = r.lateP99
		}
	}
	out.set("serve.sustained_rate_jobs_per_s", sustained)
	out.set("gen.late_p99_us", float64(late)/1e3)

	clusterLayers(out, []*cluster.Result{r50.acct.res}, []*obs.Registry{r50.sc.reg}, [][]*tracedTransport{r50.sc.links})
	serveLayers(out, r50.sc, r50.acct)
	var accept lhist
	for _, rec := range r50.open.recs {
		if rec.accepted != 0 {
			accept.add(rec.accepted - rec.sent)
		}
	}
	out.set("serve.accept_rtt_us", accept.quantile(0.50)/1e3)
	out.set("failed_ratio", float64(out.failed)/float64(out.attempted))
	openJobSpans(c.tr, r50)
}

// openJobSpans records a span tree for every spanSample-th job of an
// open-loop rung: the job from due to done, with the wait for the
// generator and the acceptance round trip as children, and the journey
// components the origin front-end stamped attached where its ring
// still holds the job.
func openJobSpans(tr *tracer, r *rungResult) {
	journeys := map[[2]uint64]serve.JourneySample{}
	for node, s := range r.sc.servers {
		for _, j := range s.Journeys().Snapshot() {
			journeys[[2]uint64{uint64(node), j.Tag}] = j
		}
	}
	base := r.open.startUnix
	for i, rec := range r.open.recs {
		if i%spanSample != 0 || rec.done == 0 {
			continue
		}
		tag := uint64(i + 1)
		due := base + int64(r.open.due[i])
		root := tr.id()
		attr := spanAttr{"conn": float64(r.open.conn[i])}
		if j, ok := journeys[[2]uint64{uint64(r.open.conn[i]), tag}]; ok && j.Stamped {
			attr["ingest_wait_ns"] = j.IngestWait * 1e9
			attr["queue_ns"] = j.Queue * 1e9
			attr["transfer_ns"] = j.Transfer * 1e9
			attr["service_ns"] = j.Service * 1e9
			attr["hops"] = float64(j.Hops)
		}
		tr.add(span{Name: "job", ID: root, Trace: root, Node: r.open.conn[i], Start: due, End: base + rec.done, Attr: attr})
		tr.add(span{Name: "gen.late", Parent: root, Trace: root, Start: due, End: base + rec.sent})
		if rec.accepted != 0 {
			tr.add(span{Name: "serve.accept", Parent: root, Trace: root, Start: base + rec.sent, End: base + rec.accepted})
		}
	}
}

// firehoseLayers runs the traced pass's two further arms and reports
// the layer metrics of the traced one.
func firehoseLayers(c *runCtx, out *runResult, plain closedStats, dur time.Duration) error {
	arm, err := runFirehoseArm(c, dur, obs.NewRegistry(), c.tr)
	if err != nil {
		return fmt.Errorf("traced arm: %w", err)
	}
	cr, acct, sc := arm.cr, arm.acct, arm.sc
	traced, err := summarizeClosed(cr)
	if err != nil {
		return fmt.Errorf("traced arm: %w", err)
	}
	clusterLayers(out, []*cluster.Result{acct.res}, []*obs.Registry{sc.reg}, [][]*tracedTransport{sc.links})
	serveLayers(out, sc, acct)
	out.set("serve.accept_rtt_us", cr.acceptRTT.quantile(0.50)/1e3)
	out.set("trace.overhead_ratio", traced.p50/plain.p50)
	// The blocking path of one job, layer by layer: the acceptance round
	// trip stands in for the two client legs, the four journey
	// components cover front-end hand-off to completion.
	sum := out.values["serve.accept_rtt_us"]/1e3 + out.values["serve.ingest_wait_p50_us"]/1e3 +
		out.values["serve.queue_p50_ms"] + out.values["serve.transfer_p50_us"]/1e3 + out.values["serve.service_p50_ms"]
	out.set("trace.layer_sum_ratio", sum/traced.p50)
	out.notef("traced arm: %d jobs, sojourn p50 %.3f ms (plain %.3f ms), layer p50s sum to %.3f ms", traced.samples, traced.p50, plain.p50, sum)

	// Observer effect: the registry, a debug endpoint and a polling
	// monitor on, no wrappers.
	oreg := obs.NewRegistry()
	dbg, err := obs.ServeDebug("127.0.0.1:0", oreg)
	if err != nil {
		return fmt.Errorf("obs arm: %w", err)
	}
	slo, err := obs.ParseSLO(fmt.Sprintf("p99 < %s over 5s/30s", latencyLimit))
	if err != nil {
		dbg.Close()
		return err
	}
	mon := obs.NewMonitor(obs.MonitorConfig{URLs: []string{dbg.URL()}, SLO: slo})
	mon.Start()
	oarm, err := runFirehoseArm(c, dur, oreg, nil)
	mon.Stop()
	dbg.Close()
	if err != nil {
		return fmt.Errorf("obs arm: %w", err)
	}
	on, err := summarizeClosed(oarm.cr)
	if err != nil {
		return fmt.Errorf("obs arm: %w", err)
	}
	out.set("serve.sojourn_p99_ms", plain.p99)
	out.set("obs.on_off_p99_ratio", on.p99/plain.p99)
	out.set("obs.on_off_jobs_ratio", on.jobsPerS/plain.jobsPerS)
	out.set("failed_ratio", float64(out.failed)/float64(out.attempted))
	out.notef("obs arm: %.0f jobs/s, p99 %.3f ms with registry + monitor on (plain %.0f jobs/s, p99 %.3f ms)", on.jobsPerS, on.p99, plain.jobsPerS, plain.p99)
	return nil
}

// stormLayers reports the traced cluster_storm pass.
func stormLayers(c *runCtx, out *runResult, runs []*stormRun) {
	var results []*cluster.Result
	var regs []*obs.Registry
	var links [][]*tracedTransport
	var stepRates []float64
	for _, sr := range runs {
		results = append(results, sr.res)
		regs = append(regs, sr.reg)
		links = append(links, sr.links)
		stepRates = append(stepRates, float64(stormNodes)*float64(c.sz.stormSteps)/sr.res.Elapsed.Seconds())
	}
	clusterLayers(out, results, regs, links)
	out.set("cluster.node_steps_per_s", median(stepRates))
	out.set("failed_ratio", float64(out.failed)/float64(out.attempted))
}

// simLayers runs the Workers = 1 arm and reports the sim.* metrics.
func simLayers(c *runCtx, out *runResult, chunks []*simChunk, workers int) error {
	n := float64(c.sz.simN)
	steps := float64(c.sz.simChunkSteps)
	wall := func(chs []*simChunk) float64 {
		var ms float64
		for _, v := range undisturbedSteps(chs) {
			ms += v
		}
		return ms / 1e3
	}
	wallN := wall(chunks)
	rateN := n * steps / wallN
	if workers > 1 {
		one, err := runSimChunk(&runCtx{seed: c.seed, sz: c.sz}, 1, c.sz.simChunkSteps, 0)
		if err != nil {
			return fmt.Errorf("Workers=1 arm: %w", err)
		}
		if one.digest != chunks[0].digest {
			return fmt.Errorf("cross-worker identity violated on the timed configuration")
		}
		rate1 := n * steps / wall([]*simChunk{one})
		out.set("sim.proc_steps_per_s.w1", rate1)
		out.set("sim.parallel_efficiency", rateN/rate1/float64(workers))
	} else {
		// cores: 1 — the timed arm is the Workers = 1 arm.
		out.set("sim.proc_steps_per_s.w1", rateN)
	}
	ops := float64(chunks[0].metrics.BalanceOps)
	out.set("sim.balance_ops_per_step", ops/steps)
	out.values["_sim.balance_ops_per_wall_s"] = ops / wallN // core_share's numerator, finished in microLayers
	out.set("failed_ratio", float64(out.failed)/float64(out.attempted))
	return nil
}
