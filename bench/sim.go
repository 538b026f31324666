package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/topology"
	"lmbalance/internal/workload"
)

// simParams are the balancing parameters cmd/shardbench records
// results/BENCH_shard.json with.
var simParams = core.Params{F: 1.1, Delta: 1, C: 4}

// simWorkers is the Workers value of the timed runs.
func simWorkers() int {
	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	return w
}

// simChunk is one timed simulation: the same (seed, shards) system every
// time, so chunks are identical work and must produce identical results.
type simChunk struct {
	setup   float64   // seconds: NewSystem + pattern, before the first step
	wall    float64   // seconds: first step → last step
	stepMS  []float64 // per-step wall time
	digest  [32]byte
	metrics core.Metrics
}

// runSimChunk runs steps ticks of the sharded engine and times each one
// through the engine's own Observe hook.
func runSimChunk(c *runCtx, workers, steps int, parent uint64) (*simChunk, error) {
	n := c.sz.simN
	ch := &simChunk{stepMS: make([]float64, 0, steps)}
	start := time.Now()
	var began, last time.Time
	cfg := sim.Config{
		N: n, Steps: steps, Runs: 1, Seed: clusterSeed(c.seed, streamSim, 0),
		Shards: simShards, Workers: workers, StatsEvery: steps,
		NewBalancer: func(run int, r *rng.RNG) (sim.Balancer, error) {
			return core.NewSystem(n, simParams, topology.NewGlobal(n), r)
		},
		NewPattern: func(run int, r *rng.RNG) (workload.Pattern, error) {
			began = time.Now()
			last = began
			return workload.Uniform{GenP: simGenP, ConP: simConP}, nil
		},
		Observe: func(run, t int, _ sim.Balancer) {
			now := time.Now()
			ch.stepMS = append(ch.stepMS, now.Sub(last).Seconds()*1e3)
			if c.tr != nil {
				c.tr.add(span{Name: "sim.step", Parent: parent, Trace: parent,
					Start: last.UnixNano(), End: now.UnixNano(), Attr: spanAttr{"t": float64(t)}})
			}
			last = now
		},
	}
	if simShards > n {
		cfg.Shards = n
	}
	// sim.Run checks core.CheckInvariants after the last step and
	// returns its error.
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	ch.setup = began.Sub(start).Seconds()
	ch.wall = last.Sub(began).Seconds()
	ch.metrics = res.CoreMetrics
	ch.digest = simDigest(res, steps)
	return ch, nil
}

// simDigest hashes everything the engine reports about a run, so two
// runs agreeing here agree on every observable.
func simDigest(res *sim.Result, steps int) [32]byte {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	m := res.CoreMetrics
	for _, v := range []int64{m.TotalBorrow, m.RemoteBorrow, m.BorrowFail, m.DecreaseSim, m.BalanceOps,
		m.ClassBalanceOps, m.Migrations, m.Generated, m.Consumed, m.ConsumeNoLoad, m.ForcedSettle} {
		put(uint64(v))
	}
	last := steps - 1
	for _, f := range []float64{res.FinalLoadVD, res.Avg.At(last).Mean(), res.Min.At(last).Mean(),
		res.Max.At(last).Mean(), res.Spread.At(last).Mean()} {
		put(math.Float64bits(f))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// simChecks are the sim workload's output checks. sim.Run has already
// run core.CheckInvariants on every system (invariantErr carries a
// failure); the digests tie the runs together.
type simChecks struct {
	invariantErr error
	w1, wN       [32]byte   // the identity check's two digests (equal when only one ran)
	chunks       [][32]byte // every timed chunk's digest
}

func (k simChecks) check() error {
	if k.invariantErr != nil {
		return fmt.Errorf("CheckInvariants: %w", k.invariantErr)
	}
	if k.w1 != k.wN {
		return fmt.Errorf("cross-worker identity violated: Workers=1 digest %x != Workers=N digest %x", k.w1[:6], k.wN[:6])
	}
	for i, d := range k.chunks {
		if d != k.chunks[0] {
			return fmt.Errorf("result digest mismatch: chunk %d %x != chunk 0 %x", i, d[:6], k.chunks[0][:6])
		}
	}
	return nil
}

// undisturbedSteps returns, for every step index, the fastest time any
// chunk took for it. Chunks are the same simulation, so step t is the
// same work in each; what differs is whether the host was disturbed
// while it ran (see stats.go).
func undisturbedSteps(chunks []*simChunk) []float64 {
	steps := append([]float64(nil), chunks[0].stepMS...)
	for _, ch := range chunks[1:] {
		for t, ms := range ch.stepMS {
			if ms < steps[t] {
				steps[t] = ms
			}
		}
	}
	return steps
}

// runSim is the sim_sharded workload.
func runSim(c *runCtx) (*runResult, error) {
	out := newRunResult()
	n, workers := c.sz.simN, simWorkers()
	var checks simChecks

	// Before timing: the same short run at Workers = 1 and Workers = N
	// must agree on everything. A 1-CPU host has no Workers = N arm. The
	// two runs double as the warm-up, and count as set-up.
	setupStart := time.Now()
	pre1, err := runSimChunk(&runCtx{seed: c.seed, sz: c.sz}, 1, c.sz.simCheckSteps, 0)
	if err != nil {
		checks.invariantErr = err
		return nil, checks.check()
	}
	checks.w1, checks.wN = pre1.digest, pre1.digest
	if workers > 1 {
		preN, err := runSimChunk(&runCtx{seed: c.seed, sz: c.sz}, workers, c.sz.simCheckSteps, 0)
		if err != nil {
			checks.invariantErr = err
			return nil, checks.check()
		}
		checks.wN = preN.digest
	}
	out.attempted++
	preDur := time.Since(setupStart)

	budget := c.seconds
	if c.tr != nil {
		budget = c.seconds / 4
	}
	var chunks []*simChunk
	var spent float64
	for {
		var parent uint64
		startNS := time.Now().UnixNano()
		if c.tr != nil {
			parent = c.tr.id()
		}
		ch, err := runSimChunk(c, workers, c.sz.simChunkSteps, parent)
		if err != nil {
			checks.invariantErr = err
			return nil, checks.check()
		}
		if c.tr != nil {
			c.tr.add(span{Name: "sim.run", ID: parent, Trace: parent, Start: startNS, End: time.Now().UnixNano(),
				Attr: spanAttr{"workers": float64(workers), "steps": float64(c.sz.simChunkSteps)}})
		}
		chunks = append(chunks, ch)
		checks.chunks = append(checks.chunks, ch.digest)
		out.attempted += 2 // its invariant check and its digest comparison
		spent += ch.wall
		if mean := spent / float64(len(chunks)); spent+mean/2 > budget.Seconds() {
			break
		}
	}
	if err := checks.check(); err != nil {
		return nil, err
	}

	var setups, rates []float64
	for _, ch := range chunks {
		setups = append(setups, ch.setup)
		rates = append(rates, float64(n)*float64(c.sz.simChunkSteps)/ch.wall)
	}
	steps := undisturbedSteps(chunks)
	var wallMS float64
	for _, ms := range steps {
		wallMS += ms
	}
	sort.Float64s(steps)
	m := chunks[0].metrics
	procSteps := float64(n) * float64(c.sz.simChunkSteps)
	out.set("setup_s", preDur.Seconds()+chunks[0].setup)
	out.notef("setup_s: the identity check's runs (%v) + the first chunk's NewSystem and pattern (per chunk: %s)",
		preDur.Round(time.Millisecond), describeSetups(setups))
	out.set("throughput_per_s", procSteps/(wallMS/1e3))
	out.set("latency_mid_ms", quantile(steps, 0.50))
	out.set("latency_tail_ms", quantile(steps, 0.90))
	out.set("overhead_per_work", float64(m.BalanceOps)/procSteps*1e3)
	out.notef("n = %d, %d shards, Workers = %d: %d identical chunks of %d steps in %.2f s; Workers=1 and Workers=%d agree, every chunk's digest is %x",
		n, simShards, workers, len(chunks), c.sz.simChunkSteps, spent, workers, chunks[0].digest[:6])
	out.notef("throughput_per_s: processor-steps / undisturbed chunk time, where step t's time is its fastest of the %d chunks (whole chunks: %s)", len(chunks), fmtList(rates, "%.4g"))
	out.notef("latency_mid_ms / latency_tail_ms: p50 / p90 of those %d per-step times", len(steps))
	out.notef("overhead_per_work: balancing operations per 1000 processor-steps (%d ops in %.0f processor-steps)", m.BalanceOps, procSteps)
	if c.tr != nil {
		if err := simLayers(c, out, chunks, workers); err != nil {
			return nil, err
		}
	}
	return out, nil
}
