package main

import (
	"fmt"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

// stormRun is one timed run of the storm cluster to completion.
type stormRun struct {
	res   *cluster.Result
	setup float64 // seconds: transports + nodes, before the first step
	reg   *obs.Registry
	links []*tracedTransport
}

func stormGenP() []float64 {
	p := make([]float64, stormNodes)
	for i := range p {
		p[i] = stormColdP
		if i < 2 {
			p[i] = stormHotP
		}
	}
	return p
}

// stormNodesUp builds — without starting — one storm cluster. The
// shared registry is on in both passes: the balancing-operation latency
// the end-to-end table reports is the program's own collect-phase
// histogram, and there is no way to time an operation from outside a
// node without the traced pass's wrappers.
func stormNodesUp(c *runCtx, run, steps int) (*stormRun, []*cluster.Node, error) {
	start := time.Now()
	ts, err := wire.NewLocalCluster(stormNodes)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster transport: %w", err)
	}
	sr := &stormRun{reg: obs.NewRegistry()}
	transports := make([]wire.Transport, stormNodes)
	for i, t := range ts {
		transports[i] = t
		if c.tr != nil {
			tt := traceTransport(c.tr, i, t)
			sr.links = append(sr.links, tt)
			transports[i] = tt
		}
	}
	nodes, err := cluster.NewNodes(cluster.ClusterConfig{
		N: stormNodes, Delta: clusterDelta, F: clusterF, Steps: steps,
		GenP: stormGenP(), ConP: []float64{stormConP},
		Seed: clusterSeed(c.seed, streamStorm, run),
		Pace: cluster.PaceOff, Obs: sr.reg,
	}, transports)
	if err != nil {
		return nil, nil, err
	}
	sr.setup = time.Since(start).Seconds()
	return sr, nodes, nil
}

// checkStorm is the storm's output check: exact packet conservation by
// both audits.
func checkStorm(res *cluster.Result) error {
	switch {
	case !res.Conserved():
		return fmt.Errorf("packet conservation violated (per-node counters)")
	case !res.Summary.Conserved():
		return fmt.Errorf("packet conservation violated (coordinator's Bye audit)")
	case res.Summary.Nodes != len(res.Nodes):
		return fmt.Errorf("coordinator audited %d nodes of %d", res.Summary.Nodes, len(res.Nodes))
	}
	return nil
}

// runStormOnce brings one storm cluster up, runs it to completion and
// checks its output.
func runStormOnce(c *runCtx, run, steps int) (*stormRun, error) {
	sr, nodes, err := stormNodesUp(c, run, steps)
	if err != nil {
		return nil, err
	}
	res, err := cluster.RunNodes(nodes)
	if err != nil {
		return nil, fmt.Errorf("cluster run %d: %w", run, err)
	}
	if err := checkStorm(res); err != nil {
		return nil, fmt.Errorf("cluster run %d: %w", run, err)
	}
	sr.res = res
	return sr, nil
}

func collectPhase(reg *obs.Registry) *obs.Histogram {
	return reg.Histogram(fmt.Sprintf("cluster_phase_seconds{phase=%q}", cluster.PhaseCollect), obs.LatencyBuckets)
}

// runStorm is the cluster_storm workload: fixed-length cluster runs,
// each on a fresh cluster, repeated until the budget is spent. Times
// and rates are read at the undisturbed quartile over those runs, the
// message cost at their median.
func runStorm(c *runCtx) (*runResult, error) {
	budget := c.seconds
	if c.tr != nil {
		budget = c.seconds / 2
	}
	out := newRunResult()
	// Warm-up: one untimed run, so the first timed run does not also pay
	// for the process's first page faults and heap growth. It is a full-
	// length run: a shorter one is mostly start-up transient (lazy dials,
	// the opening collision of every node's first trigger) and its length
	// varies by half from one process to the next.
	warmStart := time.Now()
	if _, err := runStormOnce(&runCtx{seed: c.seed, sz: c.sz}, -1, c.sz.stormSteps); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warm := time.Since(warmStart)
	var runs []*stormRun
	var spent time.Duration
	for i := 0; ; i++ {
		sr, err := runStormOnce(c, i, c.sz.stormSteps)
		if err != nil {
			return nil, err
		}
		runs = append(runs, sr)
		spent += sr.res.Elapsed
		// Stop once another run of the mean length would overshoot the
		// budget by more than it undershoots now.
		if mean := spent / time.Duration(len(runs)); spent+mean/2 > budget {
			break
		}
	}
	var setups, opsPerS, means, tails, msgsPerOp []float64
	var completed int64
	for _, sr := range runs {
		res := sr.res
		if res.Completed() == 0 {
			return nil, fmt.Errorf("a cluster run completed no balancing operation")
		}
		wall := res.Elapsed.Seconds()
		setups = append(setups, sr.setup)
		opsPerS = append(opsPerS, float64(res.Completed())/wall)
		msgsPerOp = append(msgsPerOp, float64(res.Messages())/float64(res.Completed()))
		h := collectPhase(sr.reg)
		// The mean, not the p50: the registry's buckets double from one to
		// the next and the p50 sits on an edge (160 µs), where a 4 % shift
		// of mass moves an interpolated quantile by 13 %. The mean is exact.
		means = append(means, h.Mean()*1e3)
		// The mean of the slowest 5 %, not a percentile: about 1 % of
		// operations wait out a timer tick and form a second hump at
		// 2.6–5.1 ms, the p99 sits on the cliff between the humps and the
		// p95 on the 320 µs edge, and both jump by half from run to run.
		bounds, counts := h.Buckets()
		tails = append(tails, tailMean(bounds, counts, stormTailShare)*1e3)
		completed += res.Completed()
		for _, n := range res.Nodes {
			out.attempted += n.MsgsSent
			out.failed += n.SendErrors
		}
	}
	out.set("setup_s", warm.Seconds()+runs[0].setup)
	out.notef("setup_s: an untimed warm-up run on its own cluster (%v) + the first timed cluster's bring-up (bring-ups alone: %s)",
		warm.Round(time.Millisecond), describeSetups(setups))
	out.set("throughput_per_s", highQuartile(opsPerS))
	out.set("latency_mid_ms", lowQuartile(means))
	out.set("latency_tail_ms", lowQuartile(tails))
	out.set("overhead_per_work", median(msgsPerOp))
	out.notef("%d runs of %d nodes × %d steps in %v; %d balancing operations completed",
		len(runs), stormNodes, c.sz.stormSteps, spent.Round(time.Millisecond), completed)
	out.notef("throughput_per_s: upper quartile over runs of completed balancing operations / wall (per run: %s)", fmtList(opsPerS, "%.4g"))
	out.notef("latency_mid_ms / latency_tail_ms: lower quartiles over runs of the mean / the mean of the slowest 5 %% of the collect phase (initiate → all replies in), from the nodes' registry histogram")
	out.notef("overhead_per_work: median over runs of messages sent / completed operation")
	if c.tr != nil {
		stormLayers(c, out, runs)
	}
	return out, nil
}
