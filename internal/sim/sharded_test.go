package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
	"lmbalance/internal/workload"
)

// shardedTestConfig is the uniform-workload config the sharded tests run:
// busy enough that triggers, borrows and settlements all occur.
func shardedTestConfig(n, steps, runs, shards int, seed uint64) Config {
	return Config{
		N:     n,
		Steps: steps,
		Seed:  seed,
		Runs:  runs,
		NewBalancer: func(run int, r *rng.RNG) (Balancer, error) {
			return core.NewSystem(n, core.DefaultParams(), topology.NewGlobal(n), r)
		},
		NewPattern: func(run int, r *rng.RNG) (workload.Pattern, error) {
			return workload.Uniform{GenP: 0.5, ConP: 0.4}, nil
		},
		Shards: shards,
	}
}

// resultsEqual compares two Results bit-exactly on everything the engine
// reports.
func resultsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	if a.CoreMetrics != b.CoreMetrics {
		t.Fatalf("metrics differ:\n  a: %+v\n  b: %+v", a.CoreMetrics, b.CoreMetrics)
	}
	if a.FinalLoadVD != b.FinalLoadVD {
		t.Fatalf("final VD differs: %v vs %v", a.FinalLoadVD, b.FinalLoadVD)
	}
	pairs := []struct {
		name string
		x, y []float64
	}{
		{"avg means", a.Avg.Means(), b.Avg.Means()},
		{"min mins", a.Min.Mins(), b.Min.Mins()},
		{"max maxs", a.Max.Maxs(), b.Max.Maxs()},
		{"spread means", a.Spread.Means(), b.Spread.Means()},
	}
	for _, p := range pairs {
		if len(p.x) != len(p.y) {
			t.Fatalf("%s: length %d vs %d", p.name, len(p.x), len(p.y))
		}
		for i := range p.x {
			if p.x[i] != p.y[i] {
				t.Fatalf("%s: slot %d: %v vs %v", p.name, i, p.x[i], p.y[i])
			}
		}
	}
	for at, accs := range a.Snapshots {
		baccs, ok := b.Snapshots[at]
		if !ok {
			t.Fatalf("snapshot %d missing in b", at)
		}
		for i := range accs {
			if accs[i].Mean() != baccs[i].Mean() {
				t.Fatalf("snapshot %d proc %d: %v vs %v", at, i, accs[i].Mean(), baccs[i].Mean())
			}
		}
	}
}

// TestShardedWorkerInvariance is the engine's central determinism claim:
// for a fixed (Seed, Shards) pair, the worker count changes only speed,
// never a single bit of the results.
//
// The n = 4096 case is busy enough that a wave's blocks span several warm
// windows (execBlock), so the race gate sees the warm-up reads of one
// worker's block next to the other workers' operations.
func TestShardedWorkerInvariance(t *testing.T) {
	cases := []struct {
		n, steps, runs, shards int
		workers                []int
	}{
		// 3 is the odd count: the blocks workers claim cannot be even.
		{192, 150, 2, 4, []int{1, 2, 3, 4, runtime.GOMAXPROCS(0) + 1}},
		{4096, 40, 1, 64, []int{1, 2, 3, runtime.GOMAXPROCS(0) + 1}},
	}
	for _, c := range cases {
		var ref *Result
		for _, w := range c.workers {
			cfg := shardedTestConfig(c.n, c.steps, c.runs, c.shards, 99)
			cfg.Workers = w
			cfg.SnapshotAt = []int{c.steps - 1}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", c.n, w, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			resultsEqual(t, ref, res)
		}
	}
}

// TestParallelForContract pins what the barrier relies on in parallelFor:
// it hands out contiguous non-empty blocks that cover every item exactly
// once; a worker's blocks come in ascending order; no block is larger than
// ⌈n/(2w)⌉, so w workers share even a short list (64 shards on 2 workers
// can never go to one claim); and one worker runs the whole range inline
// as one block.
func TestParallelForContract(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, workers - 1, workers, 64, 10000, 24001} {
			t.Run(fmt.Sprintf("n=%d_workers=%d", n, workers), func(t *testing.T) {
				// The claims themselves, taken one after another.
				if w := min(workers, n); w > 1 {
					var next atomic.Int64
					limit := (n + 2*w - 1) / (2 * w)
					at := 0
					for {
						lo, hi := claimBlock(&next, n, w)
						if lo == hi {
							break
						}
						if lo != at || hi > n {
							t.Fatalf("claim [%d, %d) after [0, %d) of %d items", lo, hi, at, n)
						}
						if hi-lo > limit {
							t.Fatalf("claim [%d, %d) holds %d items, more than ⌈n/(2w)⌉ = %d", lo, hi, hi-lo, limit)
						}
						at = hi
					}
					if at != n {
						t.Fatalf("claims covered [0, %d) of %d items", at, n)
					}
				}
				// The blocks handed out, on goroutines.
				ran := make([]atomic.Int32, n)
				last := make([]int, workers)
				for w := range last {
					last[w] = -1
				}
				parallelFor(workers, n, func(worker, lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("worker %d handed block [%d, %d) of %d items", worker, lo, hi, n)
						return
					}
					if min(workers, n) == 1 && (worker != 0 || lo != 0 || hi != n) {
						t.Errorf("block [%d, %d) ran on worker %d: one worker or one item runs [0, n) inline as worker 0", lo, hi, worker)
					}
					if lo <= last[worker] {
						t.Errorf("worker %d ran block [%d, %d) after item %d", worker, lo, hi, last[worker])
					}
					last[worker] = hi - 1
					for i := lo; i < hi; i++ {
						ran[i].Add(1)
					}
				})
				for i := range ran {
					if c := ran[i].Load(); c != 1 {
						t.Fatalf("item %d ran %d times", i, c)
					}
				}
			})
		}
	}
}

// TestShardedSeedDeterminism re-runs the same (Seed, Shards) twice and a
// different seed once: identical and different results respectively.
func TestShardedSeedDeterminism(t *testing.T) {
	run := func(seed uint64) *Result {
		cfg := shardedTestConfig(128, 120, 1, 4, seed)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	resultsEqual(t, a, b)
	c := run(8)
	if a.CoreMetrics == c.CoreMetrics {
		t.Fatal("different seeds produced identical metrics")
	}
}

// TestShardedMatchesSequential is the differential test against the
// sequential engine. The two engines walk different (equally valid) sample
// paths, so the comparison is statistical: aggregate observables over
// enough runs must agree within tolerance.
func TestShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test needs multiple runs")
	}
	const (
		n, steps, runs = 256, 300, 12
		seed           = 12345
	)
	seq := shardedTestConfig(n, steps, runs, 0, seed)
	shr := shardedTestConfig(n, steps, runs, 8, seed)
	seqRes, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	shrRes, err := Run(shr)
	if err != nil {
		t.Fatal(err)
	}
	// Mean load trajectory is workload-driven and must agree tightly.
	relDiff := func(a, b float64) float64 {
		if a == 0 && b == 0 {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	last := steps - 1
	if d := relDiff(seqRes.Avg.At(last).Mean(), shrRes.Avg.At(last).Mean()); d > 0.10 {
		t.Errorf("final avg load: seq %.3f shard %.3f (rel diff %.3f)",
			seqRes.Avg.At(last).Mean(), shrRes.Avg.At(last).Mean(), d)
	}
	// Balancing quality: mean spread over the second half of the run.
	window := func(r *Result) float64 {
		sum, cnt := 0.0, 0
		for tt := steps / 2; tt < steps; tt++ {
			sum += r.Spread.At(tt).Mean()
			cnt++
		}
		return sum / float64(cnt)
	}
	ws, wh := window(seqRes), window(shrRes)
	if d := relDiff(ws, wh); d > 0.25 {
		t.Errorf("mean spread window: seq %.3f shard %.3f (rel diff %.3f)", ws, wh, d)
	}
	// Activity rates per processor-step.
	rate := func(v int64) float64 { return float64(v) / float64(n*steps*runs) }
	sm, hm := seqRes.CoreMetrics, shrRes.CoreMetrics
	if d := relDiff(rate(sm.Generated), rate(hm.Generated)); d > 0.02 {
		t.Errorf("generate rate: seq %.4f shard %.4f", rate(sm.Generated), rate(hm.Generated))
	}
	if d := relDiff(rate(sm.Consumed), rate(hm.Consumed)); d > 0.05 {
		t.Errorf("consume rate: seq %.4f shard %.4f", rate(sm.Consumed), rate(hm.Consumed))
	}
	if d := relDiff(rate(sm.BalanceOps), rate(hm.BalanceOps)); d > 0.15 {
		t.Errorf("balance-op rate: seq %.4f shard %.4f", rate(sm.BalanceOps), rate(hm.BalanceOps))
	}
}

// TestShardedOneProducer drives the §3 one-producer model through the
// sparse fast path and checks exact packet conservation plus the
// Theorem 2 shape (the generator keeps roughly f/(δ+1−f)·avg more load
// than the rest — here just sanity: its load is positive and bounded).
func TestShardedOneProducer(t *testing.T) {
	const n, steps = 64, 8 * 64
	cfg := Config{
		N:     n,
		Steps: steps,
		Seed:  5,
		Runs:  3,
		NewBalancer: func(run int, r *rng.RNG) (Balancer, error) {
			return core.NewSystem(n, core.DefaultParams(), topology.NewGlobal(n), r)
		},
		NewPattern: func(run int, r *rng.RNG) (workload.Pattern, error) {
			return workload.OneProducer{}, nil
		},
		Shards:     4,
		StatsEvery: steps, // only the final tick is scanned
		SnapshotAt: []int{steps - 1},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Exact conservation: one packet generated per tick, none consumed.
	if got := res.CoreMetrics.Generated; got != int64(steps*cfg.Runs) {
		t.Fatalf("generated %d, want %d", got, steps*cfg.Runs)
	}
	if res.CoreMetrics.Consumed != 0 {
		t.Fatalf("consumed %d, want 0", res.CoreMetrics.Consumed)
	}
	// The final average load per processor is steps/n = 8 exactly.
	if avg := res.Avg.At(steps - 1).Mean(); math.Abs(avg-8) > 1e-9 {
		t.Fatalf("final avg %.4f, want 8", avg)
	}
	// Balancing must have spread load off the generator: max far below
	// the total, min above zero.
	if max := res.Max.At(steps - 1).Mean(); max >= float64(steps)/2 {
		t.Fatalf("final max %.1f: no balancing happened", max)
	}
}

// TestShardedStatsEvery checks the strided statistics path on the
// sequential engine too: stride 1 and stride k agree on sampled steps.
func TestShardedStatsEvery(t *testing.T) {
	base := shardedTestConfig(64, 100, 2, 0, 3)
	strided := base
	strided.StatsEvery = 10
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(strided)
	if err != nil {
		t.Fatal(err)
	}
	if b.Avg.Stride() != 10 || b.Avg.Len() != 100 {
		t.Fatalf("stride %d len %d", b.Avg.Stride(), b.Avg.Len())
	}
	for tt := 0; tt < 100; tt++ {
		if !b.Avg.Sampled(tt) {
			continue
		}
		if got, want := b.Avg.At(tt).Mean(), a.Avg.At(tt).Mean(); got != want {
			t.Fatalf("step %d: strided avg %v, per-step avg %v", tt, got, want)
		}
		if got, want := b.Spread.At(tt).Mean(), a.Spread.At(tt).Mean(); got != want {
			t.Fatalf("step %d: strided spread %v, per-step spread %v", tt, got, want)
		}
	}
}

// TestShardedValidation covers the new Config fields.
func TestShardedValidation(t *testing.T) {
	good := shardedTestConfig(64, 10, 1, 4, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Shards = -1
	if bad.Validate() == nil {
		t.Fatal("Shards=-1 accepted")
	}
	bad = good
	bad.Shards = 65
	if bad.Validate() == nil {
		t.Fatal("Shards>N accepted")
	}
	bad = good
	bad.Workers = -2
	if bad.Validate() == nil {
		t.Fatal("Workers=-2 accepted")
	}
	bad = good
	bad.StatsEvery = -1
	if bad.Validate() == nil {
		t.Fatal("StatsEvery=-1 accepted")
	}
	// Sharded engine refuses non-core balancers at run time.
	nc := good
	nc.NewBalancer = func(run int, r *rng.RNG) (Balancer, error) {
		sys, err := core.NewSystem(nc.N, core.DefaultParams(), topology.NewGlobal(nc.N), r)
		return struct{ Balancer }{sys}, err
	}
	if _, err := Run(nc); err == nil {
		t.Fatal("sharded run with non-core balancer accepted")
	}
}

// goldenDigest hashes everything observable about a one-run sharded
// result: the core counters, the final per-processor loads, and the last
// step's avg/min/max/spread.
func goldenDigest(res *Result, steps int) string {
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
	for i := range res.Snapshots[last] {
		put(math.Float64bits(res.Snapshots[last][i].Mean()))
	}
	for _, f := range []float64{res.Avg.At(last).Mean(), res.Min.At(last).Mean(),
		res.Max.At(last).Mean(), res.Spread.At(last).Mean()} {
		put(math.Float64bits(f))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardedGoldenSamplePath pins one small sharded run per δ to digests
// captured before the fused balance kernel replaced the gather/scatter
// one. The dense differential stops at n = 24 and the benchmark's digest
// only compares a run with itself; this is the test that catches a kernel
// that is self-consistent but has drifted off the recorded sample path.
func TestShardedGoldenSamplePath(t *testing.T) {
	const n, steps, shards = 2048, 40, 16
	golden := map[int]string{
		1: "0a340b6c6155fbe6de670b2f4ff100b103a4f31c6ac9d09b0197ce5f5687b847",
		4: "64017b37aae9f83626be700a717a4771de9b0cc94be8dfb4d544d11b9dea6678",
	}
	for _, delta := range []int{1, 4} {
		for _, workers := range []int{1, 2, 3} {
			cfg := shardedTestConfig(n, steps, 1, shards, 20260926)
			cfg.NewBalancer = func(run int, r *rng.RNG) (Balancer, error) {
				return core.NewSystem(n, core.Params{F: 1.1, Delta: delta, C: 4}, topology.NewGlobal(n), r)
			}
			cfg.Workers = workers
			cfg.SnapshotAt = []int{steps - 1}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("δ=%d workers=%d: %v", delta, workers, err)
			}
			if res.CoreMetrics.BalanceOps == 0 || res.CoreMetrics.TotalBorrow == 0 {
				t.Fatalf("δ=%d: run too quiet to pin anything: %+v", delta, res.CoreMetrics)
			}
			if got := goldenDigest(res, steps); got != golden[delta] {
				t.Errorf("δ=%d workers=%d: digest %s, want %s", delta, workers, got, golden[delta])
			}
		}
	}
}

// TestShardedTickAllocations: a warmed tick of the sharded engine
// allocates a handful of objects, not some per deferred operation. Every
// operation's private stream is walked on a reseeded per-worker generator
// (a generator allocated per stream was thousands of allocations per tick
// at this size), and the arrays its draws are stored in are reused from
// tick to tick.
func TestShardedTickAllocations(t *testing.T) {
	const n, shards, warm, measured = 4096, 16, 150, 20
	cfg := shardedTestConfig(n, warm+measured+1, 1, shards, 11)
	cfg.Workers = 1 // the inline path: no goroutines, so every allocation is the engine's
	part := rng.NewPartition(rng.Mix64(cfg.Seed, 0))
	sys, err := core.NewSystem(n, core.DefaultParams(), topology.NewGlobal(n), part.Stream(rng.StreamBalancer, 0))
	if err != nil {
		t.Fatal(err)
	}
	// A stationary workload (generation and consumption balanced), so that
	// row growth stops once the buffers have reached their working size.
	e := newShardedEngine(cfg, sys, workload.Uniform{GenP: 0.5, ConP: 0.5}, part)
	tick, ops := 0, 0
	step := func() {
		e.stepPhase(tick)
		e.resolveTriggers(tick)
		ops += len(e.ops)
		e.resolveSettles(tick)
		tick++
	}
	for tick < warm {
		step()
	}
	ops = 0
	allocs := testing.AllocsPerRun(measured, step)
	opsPerTick := ops / (measured + 1) // AllocsPerRun makes one extra warm-up call
	t.Logf("%.0f allocations and %d deferred operations per tick", allocs, opsPerTick)
	if opsPerTick < 500 {
		t.Fatalf("only %d operations per tick: too quiet to tell O(1) from O(ops)", opsPerTick)
	}
	if allocs > 32 {
		t.Errorf("%.0f allocations per warmed tick (%d deferred operations): want O(1)", allocs, opsPerTick)
	}
	e.absorbMetrics()
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCountingSortMatchesSortInts holds the mailbox sort to sort.Ints:
// random keys with duplicates over a whole lane, and keys drawn from a
// Sparse pattern's subset of the lane, with the tally array zero again
// after every sort.
func TestCountingSortMatchesSortInts(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 2000; trial++ {
		lane := 1 + r.Intn(300)
		// Half the trials draw from the whole lane, half from a subset, as
		// a shard's order holds under a Sparse pattern.
		domain := make([]int, 0, lane)
		for li := 0; li < lane; li++ {
			if trial%2 == 0 || r.Intn(8) == 0 {
				domain = append(domain, li)
			}
		}
		if len(domain) == 0 {
			domain = append(domain, r.Intn(lane))
		}
		keys := make([]int, r.Intn(2*lane+1))
		for i := range keys {
			keys[i] = domain[r.Intn(len(domain))]
		}
		want := append([]int(nil), keys...)
		sort.Ints(want)
		count := make([]int32, lane)
		countingSort(keys, count)
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d (lane %d): countingSort gave %v, sort.Ints %v", trial, lane, keys, want)
		}
		for li, c := range count {
			if c != 0 {
				t.Fatalf("trial %d: count[%d] = %d after the sort, want 0", trial, li, c)
			}
		}
	}
}

// TestPlanWavesAcrossTicks holds planWaves' stamp-based planning to a
// fresh greedy schedule per tick, over consecutive ticks (stamps left by
// earlier ticks must read as no wave) and across the reset before the
// stamps would overflow.
func TestPlanWavesAcrossTicks(t *testing.T) {
	const n, delta = 40, 2
	r := rng.New(3)
	e := &shardedEngine{delta: delta, lastWave: make([]int32, n)}
	for tick := 0; tick < 300; tick++ {
		if tick == 150 {
			e.waveBase = math.MaxInt32 - 5
		}
		K := r.Intn(30)
		e.ops = e.ops[:0]
		e.opDraws = make([]opDraw, K)
		e.opPartners = make([]int, K*delta)
		for k := 0; k < K; k++ {
			e.ops = append(e.ops, r.Intn(n))
			np := r.Intn(delta + 1)
			for j := 0; j < np; j++ {
				e.opPartners[k*delta+j] = r.Intn(n)
			}
			e.opDraws[k].partners = int32(np)
		}
		last := map[int]int32{}
		wantMax := int32(0)
		want := make([]int32, K)
		for k, init := range e.ops {
			w := last[init]
			for _, p := range e.partnersOf(k) {
				w = max(w, last[p])
			}
			w++
			last[init] = w
			for _, p := range e.partnersOf(k) {
				last[p] = w
			}
			want[k] = w
			wantMax = max(wantMax, w)
		}
		if got := e.planWaves(); got != int(wantMax) || !slices.Equal(e.opWave, want) {
			t.Fatalf("tick %d (base %d): planWaves gave %d waves %v, want %d waves %v", tick, e.waveBase, got, e.opWave, wantMax, want)
		}
	}
}

// BenchmarkPlanWaves times the serial wave planner on one tick of the
// sim_sharded regime: n = 65 536, δ = 1, ~24 000 operations whose
// initiators ascend (canonical order) and whose partners are random.
func BenchmarkPlanWaves(b *testing.B) {
	const n, ops, delta = 65536, 24000, 1
	r := rng.New(1)
	e := &shardedEngine{
		delta:      delta,
		lastWave:   make([]int32, n),
		opDraws:    make([]opDraw, ops),
		opPartners: make([]int, ops*delta),
	}
	for k := 0; k < ops; k++ {
		e.ops = append(e.ops, k*n/ops)
		e.opPartners[k] = r.Intn(n)
		e.opDraws[k].partners = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.planWaves()
	}
}

// BenchmarkShardedPhases times one tick of the sim_sharded regime phase by
// phase: n = 65 536, 64 shards, δ = 1, Uniform{0.5, 0.4}, Workers =
// GOMAXPROCS, warmed for 50 ticks, so that b.N = 50 times ticks 50–99 of
// the benchmark's 100-step chunk. It runs the engine's phase methods in
// resolveTriggers' order and reports ns/tick for each: the step phase,
// the trigger mailboxes' concatenation into canonical order, drawOps,
// planWaves with bucketByWave, the waves, and the settlements. The
// serial share is the single-threaded phases' part of the tick: the
// concatenation, the planning and the settlements.
func BenchmarkShardedPhases(b *testing.B) {
	const n, shards, warm = 65536, 64, 50
	cfg := shardedTestConfig(n, warm+b.N, 1, shards, 1)
	cfg.Workers = runtime.GOMAXPROCS(0)
	part := rng.NewPartition(rng.Mix64(cfg.Seed, 0))
	sys, err := core.NewSystem(n, core.DefaultParams(), topology.NewGlobal(n), part.Stream(rng.StreamBalancer, 0))
	if err != nil {
		b.Fatal(err)
	}
	e := newShardedEngine(cfg, sys, workload.Uniform{GenP: 0.5, ConP: 0.4}, part)
	var phase [6]time.Duration // step, concat, draw, plan, waves, settle
	tick := func(t int) {
		at := time.Now()
		lap := func(k int) {
			now := time.Now()
			phase[k] += now.Sub(at)
			at = now
		}
		e.stepPhase(t)
		lap(0)
		e.ops = e.ops[:0]
		for s := range e.shards {
			sh := &e.shards[s]
			for _, li := range sh.triggers {
				e.ops = append(e.ops, sh.lane.Global(li))
			}
			sh.triggers = sh.triggers[:0]
		}
		lap(1)
		if K := len(e.ops); K > 0 {
			e.drawOps(t)
			lap(2)
			maxWave := e.planWaves()
			e.bucketByWave(K, maxWave)
			lap(3)
			for w := 1; w <= maxWave; w++ {
				waveOps := e.opOrder[e.waveStart[w-1]:e.waveStart[w]]
				parallelFor(e.workers, len(waveOps), func(worker, lo, hi int) {
					e.execBlock(e.opWorkers[worker], waveOps[lo:hi])
				})
			}
			lap(4)
		}
		e.resolveSettles(t)
		lap(5)
	}
	for t := 0; t < warm; t++ {
		tick(t)
	}
	phase = [6]time.Duration{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(warm + i)
	}
	b.StopTimer()
	var total time.Duration
	for k, name := range []string{"step", "concat", "draw", "plan", "waves", "settle"} {
		b.ReportMetric(float64(phase[k].Nanoseconds())/float64(b.N), name+"-ns/tick")
		total += phase[k]
	}
	b.ReportMetric(float64(phase[1]+phase[3]+phase[5])/float64(total), "serial-share")
}
