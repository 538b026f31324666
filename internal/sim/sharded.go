// Sharded within-run simulation engine.
//
// The sequential engine (oneRun) parallelizes over runs, which is the
// right shape for the paper's 100-run experiments at n ≤ 4096 but leaves a
// single million-processor run serial. The sharded engine parallelizes
// inside one run: the n processors are partitioned into S contiguous
// shards, each driven through a core.Lane view by its own deterministic
// RNG streams, and every global tick proceeds in phases:
//
//  1. Step phase (parallel over shards). Each shard shuffles its local
//     processor order and steps its processors a window at a time: it
//     first reads the row header and the heads of the tail's two lists of
//     every processor in the window, so that the random rows' cache misses overlap, and
//     then steps them — workload action draws, local generates/consumes,
//     local borrow decisions. Balancing conditions are not acted on; they
//     are appended to the shard's mailbox (trigger initiations and
//     consumes that need settlement), and the shard puts its mailboxes in
//     local-index order by counting before the phase ends, so the
//     canonical order is made where the mailboxes fill, in parallel, not
//     at the barrier.
//  2. Trigger barrier (deterministic). Mailboxes are drained in canonical
//     order — shard-major, shard-local index ascending, never arrival or
//     scheduling order — by concatenating the sorted mailboxes. Each deferred
//     initiation k gets a private RNG stream keyed (Seed, run, tick, k), from
//     which everything random about it — its δ partners and the snake's start
//     position — is drawn once, in parallel, into per-tick arrays; a greedy
//     list schedule over the stored partners then groups the operations into
//     waves with pairwise-disjoint participant sets, remembering each
//     processor's last wave as a stamp above a per-tick base, so that no
//     pass resets the stamps between ticks. Waves execute in
//     sequence, the operations inside a wave in parallel on any number of
//     workers, and execution touches no generator. A worker takes a claimed
//     block of a wave's operations a window at a time: it first reads the
//     row header and the tail lists' heads of every participant in the
//     window, so the cache misses of random partners' rows overlap instead
//     of stalling one operation each, and then executes the window in
//     order.
//     Those reads cover only the block's own operations, disjoint from
//     every other worker's in the wave. Because a balancing
//     operation reads and writes only its δ+1 participants plus caller-owned
//     scratch, and any two conflicting operations land in distinct waves in
//     canonical order, wave execution is state-identical to executing all
//     operations serially in canonical order. Each operation re-checks its
//     factor-f trigger at execution (an earlier operation in the same barrier
//     may have balanced the initiator already), exactly as the serial
//     canonical order would; the draws of an operation whose re-check fails
//     are dropped, which nothing can observe because the stream was its alone.
//  3. Settlement pass (serial). Deferred consumes — those needing marker
//     settlement, which can cascade into class recovery and further
//     balancing — resolve in canonical order on a per-tick settle stream
//     through the full sequential consume path.
//  4. Statistics. On sampled ticks each shard folds its loads into a
//     stats.LoadPartial (parallel), and the partials merge in a
//     fixed-shape binary tree reduction — no global O(n) scan on a single
//     goroutine, and exact integer arithmetic so the merged min/max/avg/
//     spread equal the sequential scan's.
//
// Determinism: every stream is keyed by (Seed, run, kind, shard|tick|op)
// through rng.Partition, the canonical order is a pure function of shard
// contents, wave execution is equivalent to serial canonical execution,
// and per-worker Metrics fold by integer addition. Results are therefore
// bit-identical for a fixed (Seed, Shards) pair under any Workers value
// and any goroutine schedule — verified by TestShardedWorkerInvariance
// and the race gate. Changing Shards re-keys the per-shard streams and
// yields a different (equally valid) sample path; agreement with the
// sequential engine is statistical, verified by differential test.
package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/stats"
	"lmbalance/internal/workload"
)

// shardState is one shard's driving state: its Lane view, its private
// streams, its iteration order, and its mailbox of deferred operations.
type shardState struct {
	lane     *core.Lane
	orderRNG rng.RNG // per-tick local order shuffles
	stepRNG  rng.RNG // workload draws + processor-local balancer choices
	order    []int   // local indices stepped each tick (active subset for Sparse patterns)
	triggers []int   // local indices with a pending factor-f initiation
	settles  []int   // local indices with a consume deferred to settlement
	count    []int32 // per local index, countingSort's tally; all zero between sorts
	warmSink int     // keeps what stepShard's warm-up reads

	// Shards sit back to back in one slice and the step phase writes a
	// shard's generators and mailbox headers on every processor step; the
	// padding keeps two shards' writes off one cache line.
	_ [core.CacheLine]byte
}

// shardedEngine drives one run of the sharded engine.
type shardedEngine struct {
	cfg     Config
	sys     *core.System
	pattern workload.Pattern
	part    rng.Partition
	shards  []shardState
	active  []int // shards with a non-empty step order
	workers int
	delta   int

	// Barrier planning state, reused across ticks.
	settleRNG  *rng.RNG // reseeded per settlement pass
	ops        []int    // global initiator of op k, canonical order
	opDraws    []opDraw // what op k drew from its private stream
	opPartners []int    // op k's partners: opPartners[k*delta:][:opDraws[k].partners]
	opWave     []int32  // wave assigned to op k
	opOrder    []int    // op indices bucketed by wave
	waveStart  []int    // opOrder[waveStart[w-1]:waveStart[w]] is wave w
	waveFill   []int
	lastWave   []int32 // per processor, waveBase + the last wave it was in
	waveBase   int32   // stamps at or below it are from earlier ticks

	// Per-worker execution state.
	opWorkers []*opWorker

	// Statistics state.
	partials  []stats.LoadPartial
	reduceBuf []stats.LoadPartial
}

// opDraw is what a deferred operation drew from its private stream: how
// many partners (a neighborhood-restricted selector may return fewer than
// δ) and the snake's start position among the participants.
type opDraw struct {
	partners int32
	start    int32
}

// opWorker is what one barrier worker owns: a generator it reseeds to the
// private stream of each operation it draws (allocating one per stream
// would make garbage in proportion to the tick's operations), the kernel
// scratch it executes operations on and its share of the counters.
type opWorker struct {
	stream  rng.RNG // reseeded before every use
	scratch *core.Scratch
	metrics core.Metrics

	// warmSink keeps what execBlock's warm-up reads, so that the compiler
	// cannot drop them as unused.
	warmSink int

	// Workers write their generator state and counters on every operation;
	// the padding keeps two workers' writes off one cache line.
	_ [core.CacheLine]byte
}

// shardedOneRun executes one run on the sharded engine.
func shardedOneRun(cfg Config, run int) runResult {
	// All streams key off (Seed, run) through a Partition: shard s obtains
	// its streams from (kind, s) locally, with no coordination and no
	// dependence on goroutine schedule — the anchor of the worker-count
	// invariance.
	part := rng.NewPartition(rng.Mix64(cfg.Seed, uint64(run)))
	rec, pattern, err := newRecorder(cfg, run, part.Stream(rng.StreamBalancer, 0), part.Stream(rng.StreamPattern, 0))
	if err != nil {
		return runResult{err: err}
	}
	sys, ok := rec.bal.(*core.System)
	if !ok {
		return runResult{err: fmt.Errorf("sharded engine requires a *core.System balancer, got %T", rec.bal)}
	}
	e := newShardedEngine(cfg, sys, pattern, part)
	for t := 0; t < cfg.Steps; t++ {
		e.stepPhase(t)
		e.resolveTriggers(t)
		e.resolveSettles(t)
		rec.endTick(t, e.scanLoads)
	}
	e.absorbMetrics()
	return rec.finish()
}

// newShardedEngine partitions the system into cfg.Shards contiguous lanes
// and sets up streams, mailboxes and worker scratch.
func newShardedEngine(cfg Config, sys *core.System, pattern workload.Pattern, part rng.Partition) *shardedEngine {
	n, S := cfg.N, cfg.Shards
	workers := cfg.workers()
	e := &shardedEngine{
		cfg:       cfg,
		sys:       sys,
		pattern:   pattern,
		part:      part,
		shards:    make([]shardState, S),
		workers:   workers,
		delta:     sys.Params().Delta,
		settleRNG: rng.New(0),
		lastWave:  make([]int32, n),
		partials:  make([]stats.LoadPartial, S),
	}
	// Sparse patterns confine activity to a fixed processor set: only
	// those processors are stepped, and shards owning none are skipped
	// entirely. Idle processors draw no RNG state under the Sparse
	// contract, so the restriction leaves every stream untouched.
	var activeProcs []int
	if sp, ok := pattern.(workload.Sparse); ok {
		activeProcs = sp.ActiveProcs()
	}
	for s := 0; s < S; s++ {
		lo, hi := s*n/S, (s+1)*n/S
		sh := &e.shards[s]
		sh.lane = sys.NewLane(lo, hi)
		sh.count = make([]int32, hi-lo)
		sh.orderRNG = *part.Stream(rng.StreamOrder, uint64(s))
		sh.stepRNG = *part.Stream(rng.StreamStep, uint64(s))
		if activeProcs == nil {
			sh.order = make([]int, hi-lo)
			for i := range sh.order {
				sh.order[i] = i
			}
		} else {
			for _, p := range activeProcs {
				if p >= lo && p < hi {
					sh.order = append(sh.order, p-lo)
				}
			}
		}
		if len(sh.order) > 0 {
			e.active = append(e.active, s)
		}
	}
	for w := 0; w < workers; w++ {
		e.opWorkers = append(e.opWorkers, &opWorker{scratch: sys.NewScratch()})
	}
	return e
}

// parallelFor covers the items [0, n) with calls fn(worker, lo, hi) on at
// most workers goroutines, one call per block of items [lo, hi) a worker
// claims (claimBlock), and returns when all items are done. A block is a
// stretch of neighbours: items are runs, shards, or operations in
// canonical order, and the state of neighbouring items shares cache lines
// (the per-tick plan arrays), while the operations of one block can be
// worked on together (execBlock). With one worker (or one item) it runs
// fn(0, 0, n) inline. The block→worker assignment is schedule-dependent;
// callers must ensure items are independent and per-worker state folds
// commutatively.
func parallelFor(workers, n int, fn func(worker, lo, hi int)) {
	if n == 0 {
		return
	}
	w := min(workers, n)
	if w <= 1 {
		fn(0, 0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				lo, hi := claimBlock(&next, n, w)
				if lo == hi {
					return
				}
				fn(worker, lo, hi)
			}
		}(k)
	}
	wg.Wait()
}

// claimBlock takes the next block [lo, hi) of the n items that w workers
// share through the cursor next, or returns lo == hi when none are left.
// Guided self-scheduling: a claim is the remaining items' share for twice
// the worker count, so blocks start at n/(2w) — no worker can take more
// than half its even share in one claim — and shrink towards single items
// as the work runs out, which evens out the finish without a block size to
// choose.
func claimBlock(next *atomic.Int64, n, w int) (lo, hi int) {
	for {
		lo = int(next.Load())
		if lo >= n {
			return n, n
		}
		size := (n - lo) / (2 * w)
		if size < 1 {
			size = 1
		}
		if next.CompareAndSwap(int64(lo), int64(lo+size)) {
			return lo, lo + size
		}
	}
}

// stepPhase drives every active shard through tick t. Shards touch only
// their own lane, streams and mailboxes, so the phase is race-free for
// any worker assignment.
func (e *shardedEngine) stepPhase(t int) {
	parallelFor(e.workers, len(e.active), func(_, lo, hi int) {
		for _, s := range e.active[lo:hi] {
			e.stepShard(&e.shards[s], t)
		}
	})
}

// stepShard steps one shard's processors through tick t.
func (e *shardedEngine) stepShard(sh *shardState, t int) {
	if len(sh.order) > 1 {
		// Local order shuffle, same rationale as the sequential engine's
		// global shuffle (no systematic early-index bias).
		sh.orderRNG.ShuffleInts(sh.order)
	}
	// The shuffled order visits the lane's rows at random, so each step
	// would stall on its row's cache miss. The shard reads the row header
	// and the tail lists' heads of a window of the order first, as execBlock
	// does for operations, so that the window's misses overlap.
	sink := 0
	for order := sh.order; len(order) > 0; {
		win := order[:min(warmWindow, len(order))]
		order = order[len(win):]
		for _, li := range win {
			sink += sh.lane.Warm(li)
		}
		for _, li := range win {
			e.stepProc(sh, li, t)
		}
	}
	sh.warmSink += sink
	// Canonical mailbox order: shard-local index ascending, independent of
	// the shuffled arrival order. A processor that triggered on both its
	// generate and its consume appears twice; the execution-time re-check
	// makes the duplicate a no-op when the first operation already
	// balanced it.
	countingSort(sh.triggers, sh.count)
	countingSort(sh.settles, sh.count)
}

// countingSort puts keys, each in [0, len(count)), in ascending order in
// place, duplicates kept: it tallies every key in count and writes the
// keys back by walking count from the smallest key to the largest. A
// mailbox holds at most two entries per processor and its keys are a
// shard's local indices, so the walk is one pass over at most the lane,
// where a comparison sort pays log of the mailbox per entry. count must
// be all zero on entry, and is all zero again on return.
func countingSort(keys []int, count []int32) {
	if len(keys) < 2 {
		return
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		count[k]++
		lo = min(lo, k)
		hi = max(hi, k)
	}
	out := keys[:0]
	for k := lo; k <= hi; k++ {
		for c := count[k]; c > 0; c-- {
			out = append(out, k)
		}
		count[k] = 0
	}
}

// stepProc steps local processor li through tick t.
func (e *shardedEngine) stepProc(sh *shardState, li, t int) {
	switch e.pattern.Step(sh.lane.Global(li), t, &sh.stepRNG) {
	case workload.Generate:
		if sh.lane.Generate(li, &sh.stepRNG) {
			sh.triggers = append(sh.triggers, li)
		}
	case workload.Consume:
		e.consumeLocal(sh, li)
	case workload.GenerateAndConsume:
		if sh.lane.Generate(li, &sh.stepRNG) {
			sh.triggers = append(sh.triggers, li)
		}
		e.consumeLocal(sh, li)
	}
}

func (e *shardedEngine) consumeLocal(sh *shardState, li int) {
	_, trigger, settle := sh.lane.Consume(li, &sh.stepRNG)
	if trigger {
		sh.triggers = append(sh.triggers, li)
	}
	if settle {
		sh.settles = append(sh.settles, li)
	}
}

// resolveTriggers drains the trigger mailboxes, each already sorted by the
// step phase, shard by shard into canonical order; draws and plans the
// operations into conflict-free waves, and executes them.
func (e *shardedEngine) resolveTriggers(t int) {
	e.ops = e.ops[:0]
	for s := range e.shards {
		sh := &e.shards[s]
		for _, li := range sh.triggers {
			e.ops = append(e.ops, sh.lane.Global(li))
		}
		sh.triggers = sh.triggers[:0]
	}
	K := len(e.ops)
	if K == 0 {
		return
	}
	e.drawOps(t)
	maxWave := e.planWaves()
	e.bucketByWave(K, maxWave)
	for w := 1; w <= maxWave; w++ {
		waveOps := e.opOrder[e.waveStart[w-1]:e.waveStart[w]]
		parallelFor(e.workers, len(waveOps), func(worker, lo, hi int) {
			e.execBlock(e.opWorkers[worker], waveOps[lo:hi])
		})
	}
}

// drawOps makes every operation's random draws, in parallel: operation k's
// generator state is a function of (tick, k) alone, and its draws land in
// its own slots of the per-tick arrays.
func (e *shardedEngine) drawOps(t int) {
	K := len(e.ops)
	if cap(e.opDraws) < K {
		e.opDraws = make([]opDraw, K)
		e.opPartners = make([]int, K*e.delta)
	}
	e.opDraws = e.opDraws[:K]
	parallelFor(e.workers, K, func(worker, lo, hi int) {
		r := &e.opWorkers[worker].stream
		for k := lo; k < hi; k++ {
			r.Reseed(e.part.OpSeed(uint64(t), uint64(k)))
			at := k * e.delta
			partners, start := e.sys.DrawOperation(e.ops[k], r, e.opPartners[at:at:at+e.delta])
			if len(partners) > e.delta {
				panic("sim: selector returned more than δ partners")
			}
			e.opDraws[k] = opDraw{partners: int32(len(partners)), start: int32(start)}
		}
	})
}

// partnersOf returns the partners operation k drew.
func (e *shardedEngine) partnersOf(k int) []int {
	return e.opPartners[k*e.delta:][:e.opDraws[k].partners]
}

// planWaves assigns the drawn operations to waves by greedy list
// scheduling: an operation lands one wave after the latest earlier
// operation it shares a participant with. Within a wave all participant
// sets are pairwise disjoint. Returns the number of waves.
//
// A participant is stamped waveBase + its wave, and the next tick's base
// is this tick's highest stamp, so a stamp from an earlier tick reads as
// "no wave yet" without a reset pass over the stamped processors.
func (e *shardedEngine) planWaves() int {
	K := len(e.ops)
	if cap(e.opWave) < K {
		e.opWave = make([]int32, K)
	}
	e.opWave = e.opWave[:K]
	// A tick stamps at most K waves above its base; start the stamps over
	// before they could overflow.
	if int64(e.waveBase)+int64(K) > math.MaxInt32 {
		clear(e.lastWave)
		e.waveBase = 0
	}
	base := e.waveBase
	top := base
	for k, init := range e.ops {
		partners := e.partnersOf(k)
		w := max(base, e.lastWave[init])
		for _, p := range partners {
			w = max(w, e.lastWave[p])
		}
		w++
		e.lastWave[init] = w
		for _, p := range partners {
			e.lastWave[p] = w
		}
		e.opWave[k] = w - base
		top = max(top, w)
	}
	e.waveBase = top
	return int(top - base)
}

// bucketByWave counting-sorts the op indices by wave, stable in canonical
// order, into e.opOrder/e.waveStart.
func (e *shardedEngine) bucketByWave(K, maxWave int) {
	if cap(e.waveStart) < maxWave+1 {
		e.waveStart = make([]int, maxWave+1)
	}
	e.waveStart = e.waveStart[:maxWave+1]
	for i := range e.waveStart {
		e.waveStart[i] = 0
	}
	for _, w := range e.opWave {
		e.waveStart[w]++
	}
	// waveStart[w] becomes the start offset of wave w+1's bucket.
	sum := 0
	for w := 1; w <= maxWave; w++ {
		c := e.waveStart[w]
		e.waveStart[w-1] = sum
		sum += c
	}
	e.waveStart[maxWave] = sum
	if cap(e.opOrder) < K {
		e.opOrder = make([]int, K)
	}
	e.opOrder = e.opOrder[:K]
	e.waveFill = append(e.waveFill[:0], e.waveStart[:maxWave]...)
	for k := 0; k < K; k++ {
		w := int(e.opWave[k])
		e.opOrder[e.waveFill[w-1]] = k
		e.waveFill[w-1]++
	}
}

// warmWindow is how many operations execBlock warms up at a time. The
// warm-up reads two or three lines per participant (the row header, the
// head of the id list and, in a row that has one, the head of the other
// list), and the operation then walks the rest of the tail: at δ = 1 and
// thirty classes a row, nearly all of them 4-byte ids, that is about three
// lines a participant, six an operation, so a window of 32 operations
// brings some 190 lines (12 KiB) into L1d, which holds 32–48 KiB on
// current x86 cores, next to the kernel's scratch rows. A much wider window evicts its first
// operations' lines before they run; a narrower one overlaps fewer misses.
const warmWindow = 32

// execBlock executes a claimed block of one wave's operations on worker
// w, a window at a time: it first reads every participant's row header and
// tail lists' heads of the window's operations (WarmOperation), so their
// cache misses overlap, and then executes the operations in order. The
// reads touch only participants of this block's operations, which no other
// worker's operation in the wave shares, so they race with nothing.
func (e *shardedEngine) execBlock(w *opWorker, ops []int) {
	sink := 0
	for len(ops) > 0 {
		win := ops[:min(warmWindow, len(ops))]
		ops = ops[len(win):]
		for _, k := range win {
			sink += e.sys.WarmOperation(e.ops[k], e.partnersOf(k))
		}
		for _, k := range win {
			e.execOp(w, k)
		}
	}
	w.warmSink += sink
}

// execOp executes deferred operation k of the current tick on worker w,
// with the draws drawOps stored for it.
func (e *shardedEngine) execOp(w *opWorker, k int) {
	init := e.ops[k]
	// Re-check the factor-f condition: an earlier wave (or an earlier
	// operation in canonical order that shared this initiator) may have
	// balanced init already. Operations in the same wave cannot affect
	// init, so this check reads exactly the state the serial canonical
	// execution would.
	if !e.sys.TriggerPending(init) {
		return
	}
	e.sys.BalanceDrawn(init, e.partnersOf(k), int(e.opDraws[k].start), w.scratch, &w.metrics)
}

// resolveSettles completes the consumes deferred for marker settlement,
// serially in canonical order (shard by shard, each mailbox sorted by the
// step phase) on the tick's settle stream. Settlement can cascade (class
// recovery, further balancing operations on arbitrary processors), which
// is why it stays serial.
func (e *shardedEngine) resolveSettles(t int) {
	r := e.settleRNG
	r.Reseed(e.part.Seed(rng.StreamSettle, uint64(t)))
	for s := range e.shards {
		sh := &e.shards[s]
		for _, li := range sh.settles {
			e.sys.SettleConsume(sh.lane.Global(li), r)
		}
		sh.settles = sh.settles[:0]
	}
}

// scanLoads computes the tick's load statistics: per-shard LoadPartials in
// parallel, merged by the fixed-shape tree reduction. All shards are
// scanned (load migrates into inactive shards through balancing).
func (e *shardedEngine) scanLoads() stats.LoadPartial {
	parallelFor(e.workers, len(e.shards), func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			p := &e.partials[s]
			*p = stats.LoadPartial{}
			lane := e.shards[s].lane
			for li := 0; li < lane.Len(); li++ {
				p.Observe(lane.Load(li))
			}
		}
	})
	e.reduceBuf = append(e.reduceBuf[:0], e.partials...)
	return stats.ReduceLoadPartials(e.reduceBuf)
}

// absorbMetrics folds every lane's and worker's counters into the System
// so Metrics and CheckInvariants see run totals.
func (e *shardedEngine) absorbMetrics() {
	for s := range e.shards {
		e.sys.AbsorbMetrics(e.shards[s].lane.TakeMetrics())
	}
	for _, w := range e.opWorkers {
		e.sys.AbsorbMetrics(w.metrics)
		w.metrics = core.Metrics{}
	}
}
