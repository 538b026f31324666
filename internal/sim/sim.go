// Package sim is the discrete-time simulation engine that drives a load
// balancing algorithm under a workload pattern, reproducing the paper's
// timing model (§2/§4): one global clock tick lets every processor
// generate one packet, consume one packet, or idle; balancing operations
// happen inside those actions (event-driven algorithms such as the paper's)
// or at the end of the tick (periodic baselines).
//
// The engine records the per-step observables the paper's figures plot —
// average, minimum and maximum processor load — and aggregates them over
// many independent runs spread over the workers (one goroutine per CPU by
// default), each with its own deterministic RNG stream split from the
// master seed.
package sim

import (
	"fmt"
	"runtime"

	"lmbalance/internal/core"
	"lmbalance/internal/rng"
	"lmbalance/internal/stats"
	"lmbalance/internal/topology"
	"lmbalance/internal/workload"
)

// Balancer is what the engine drives: the core algorithm, a baseline, or
// anything else exposing per-processor generate/consume plus load
// introspection. core.System satisfies it directly; baseline algorithms
// add a Tick hook via the optional Ticker interface.
type Balancer interface {
	Name() string
	N() int
	Generate(i int)
	Consume(i int) bool
	Load(i int) int
	Loads(dst []int) []int
}

// Ticker is implemented by balancers that act at end-of-step (periodic
// baselines). The engine calls Tick exactly once per global time step.
type Ticker interface {
	Tick(t int)
}

// Config describes one simulation.
type Config struct {
	// N is the number of processors.
	N int
	// Steps is the number of global time steps.
	Steps int
	// Seed is the master seed; all randomness (workload, algorithm,
	// per-run streams) derives from it.
	Seed uint64
	// Runs is the number of independent repetitions (>= 1).
	Runs int
	// SnapshotAt lists global time steps at which full per-processor load
	// vectors are recorded (for the paper's Fig. 9/10 distribution plots).
	SnapshotAt []int
	// NewBalancer constructs the algorithm under test for one run.
	NewBalancer func(run int, r *rng.RNG) (Balancer, error)
	// NewPattern constructs the workload for one run. Patterns are
	// per-run because the paper redraws the random phase plans each run.
	NewPattern func(run int, r *rng.RNG) (workload.Pattern, error)
	// Observe, if non-nil, is called after every global time step with
	// the run index, the step, and the balancer. Runs execute in
	// parallel, so Observe is called concurrently for different run
	// indices — implementations must partition their state by run. The
	// balancer must not be retained.
	Observe func(run, t int, bal Balancer)
	// Shards, when > 0, selects the sharded engine: the N processors are
	// partitioned into Shards contiguous shards driven concurrently
	// within each run, with cross-shard balancing operations resolved at
	// a deterministic per-tick barrier (see sharded.go). Results are
	// bit-deterministic for a fixed (Seed, Shards) pair, for any Workers
	// value. Requires the balancer to be a *core.System. 0 (the default)
	// runs the original sequential per-run engine, bit-identical to
	// earlier releases.
	Shards int
	// Workers bounds the goroutines used for parallelism: those the
	// sequential engine spreads its runs over, and the shard/operation
	// workers of the sharded engine. 0 means GOMAXPROCS. Workers affects
	// only speed, never results.
	Workers int
	// StatsEvery strides the per-step load statistics: only steps t with
	// (t+1) % StatsEvery == 0 are scanned and recorded (see
	// stats.NewSeriesStride). 0 or 1 records every step. Snapshots and
	// final-load statistics are unaffected. Striding bounds both the
	// memory of the per-step series and the O(N) per-tick scan cost on
	// multi-million-step runs.
	StatsEvery int
}

// statsStride returns the effective series stride.
func (c *Config) statsStride() int {
	if c.StatsEvery < 1 {
		return 1
	}
	return c.StatsEvery
}

// workers returns the effective worker count.
func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("sim: N = %d, need >= 2", c.N)
	case c.Steps < 1:
		return fmt.Errorf("sim: Steps = %d, need >= 1", c.Steps)
	case c.Runs < 1:
		return fmt.Errorf("sim: Runs = %d, need >= 1", c.Runs)
	case c.NewBalancer == nil:
		return fmt.Errorf("sim: NewBalancer is nil")
	case c.NewPattern == nil:
		return fmt.Errorf("sim: NewPattern is nil")
	case c.Shards < 0 || c.Shards > c.N:
		return fmt.Errorf("sim: Shards = %d, need 0 <= Shards <= N", c.Shards)
	case c.Workers < 0:
		return fmt.Errorf("sim: Workers = %d, need >= 0", c.Workers)
	case c.StatsEvery < 0:
		return fmt.Errorf("sim: StatsEvery = %d, need >= 0", c.StatsEvery)
	}
	for _, s := range c.SnapshotAt {
		if s < 0 || s >= c.Steps {
			return fmt.Errorf("sim: snapshot step %d outside [0,%d)", s, c.Steps)
		}
	}
	return nil
}

// LMConfig is a convenience constructor for a Config that runs the core
// Lüling–Monien algorithm with the paper's uniform random candidate
// selection under the per-run workload newPattern builds.
func LMConfig(n, steps, runs int, params core.Params, newPattern func(run int, r *rng.RNG) (workload.Pattern, error), seed uint64) Config {
	return Config{
		N:     n,
		Steps: steps,
		Seed:  seed,
		Runs:  runs,
		NewBalancer: func(run int, r *rng.RNG) (Balancer, error) {
			return core.NewSystem(n, params, topology.NewGlobal(n), r)
		},
		NewPattern: newPattern,
	}
}

// Result aggregates the observables over all runs.
type Result struct {
	// Avg, Min, Max are per-step accumulators over runs of the average,
	// minimum and maximum processor load at that step — the three curves
	// of the paper's Fig. 7/8.
	Avg, Min, Max *stats.Series
	// Spread is the per-step accumulator of (max−min) processor load.
	Spread *stats.Series
	// Snapshots[t][i] accumulates processor i's load at snapshot step t
	// over runs — mean/min/max per processor, the paper's Fig. 9/10.
	Snapshots map[int][]stats.Accumulator
	// CoreMetrics is the sum of core.Metrics over runs when the balancer
	// is a *core.System (zero otherwise); divide by Runs for Table 1 rows.
	CoreMetrics core.Metrics
	// Runs echoes the number of runs aggregated.
	Runs int
	// FinalLoadVD is the variation density of the final per-processor
	// loads pooled over all runs.
	FinalLoadVD float64

	finalLoads stats.Accumulator
}

// runResult is one run's partial aggregate, merged into Result.
type runResult struct {
	avg, min, max, spread *stats.Series
	snapshots             map[int][]float64
	metrics               core.Metrics
	finalLoads            []float64
	err                   error
}

// Run executes the configured number of independent runs (in parallel) and
// returns the merged result. The aggregation is deterministic for a fixed
// Config: each run's RNG stream depends only on (Seed, run index) and
// accumulator merging is order-independent for the statistics reported.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The sequential engine spreads its runs over the workers. The sharded
	// engine's parallelism lives inside each run (shard and operation
	// workers), so its runs execute one after another — which also bounds
	// peak memory to one system at the multi-million-processor sizes it
	// exists for.
	runOne, workers := oneRun, cfg.workers()
	if cfg.Shards > 0 {
		runOne, workers = shardedOneRun, 1
	}
	results := make([]runResult, cfg.Runs)
	parallelFor(workers, cfg.Runs, func(_, lo, hi int) {
		for run := lo; run < hi; run++ {
			results[run] = runOne(cfg, run)
		}
	})

	stride := cfg.statsStride()
	res := &Result{
		Avg:       stats.NewSeriesStride(cfg.Steps, stride),
		Min:       stats.NewSeriesStride(cfg.Steps, stride),
		Max:       stats.NewSeriesStride(cfg.Steps, stride),
		Spread:    stats.NewSeriesStride(cfg.Steps, stride),
		Snapshots: make(map[int][]stats.Accumulator, len(cfg.SnapshotAt)),
		Runs:      cfg.Runs,
	}
	for _, t := range cfg.SnapshotAt {
		res.Snapshots[t] = make([]stats.Accumulator, cfg.N)
	}
	for run := range results {
		r := &results[run]
		if r.err != nil {
			return nil, fmt.Errorf("sim: run %d: %w", run, r.err)
		}
		res.Avg.Merge(r.avg)
		res.Min.Merge(r.min)
		res.Max.Merge(r.max)
		res.Spread.Merge(r.spread)
		for t, loads := range r.snapshots {
			accs := res.Snapshots[t]
			for i, v := range loads {
				accs[i].Add(v)
			}
		}
		res.CoreMetrics.Add(r.metrics)
		for _, v := range r.finalLoads {
			res.finalLoads.Add(v)
		}
	}
	res.FinalLoadVD = res.finalLoads.VariationDensity()
	return res, nil
}

// oneRun executes a single simulation run.
func oneRun(cfg Config, run int) runResult {
	// Derive independent deterministic streams: one for the workload, one
	// for the algorithm, one for the engine's per-step processor order.
	// The (Seed, run) pair is hashed rather than combined additively:
	// Seed + run*const would make run r+1 of seed S replay run r of seed
	// S+const, silently correlating sweeps whose seeds differ by the
	// stride.
	master := rng.New(rng.Mix64(cfg.Seed, uint64(run)))
	patternRNG := master.Split()
	balancerRNG := master.Split()
	orderRNG := master.Split()

	rec, pattern, err := newRecorder(cfg, run, balancerRNG, patternRNG)
	if err != nil {
		return runResult{err: err}
	}
	bal := rec.bal
	order := make([]int, cfg.N)
	for i := range order {
		order[i] = i
	}
	for t := 0; t < cfg.Steps; t++ {
		// Random processor order per step removes the systematic bias a
		// fixed order would give early processors in balancing decisions.
		orderRNG.ShuffleInts(order)
		for _, i := range order {
			switch pattern.Step(i, t, patternRNG) {
			case workload.Generate:
				bal.Generate(i)
			case workload.Consume:
				bal.Consume(i)
			case workload.GenerateAndConsume:
				bal.Generate(i)
				bal.Consume(i)
			}
		}
		if tk, ok := bal.(Ticker); ok {
			tk.Tick(t)
		}
		rec.endTick(t, rec.scanLoads)
	}
	return rec.finish()
}

// recorder is one run's bookkeeping, the same for both engines: it builds
// the run's balancer and pattern, records the strided load statistics,
// the snapshots and the Observe call after every tick, and at the end the
// counters, the invariant check and the final loads.
type recorder struct {
	cfg      Config
	run      int
	bal      Balancer
	out      runResult
	snapshot map[int]bool // the ticks cfg.SnapshotAt names
	loads    []int        // scanLoads' buffer
}

// newRecorder builds run's balancer from balancerRNG and then its pattern
// from patternRNG, and checks the balancer's size.
func newRecorder(cfg Config, run int, balancerRNG, patternRNG *rng.RNG) (*recorder, workload.Pattern, error) {
	bal, err := cfg.NewBalancer(run, balancerRNG)
	if err != nil {
		return nil, nil, err
	}
	if bal.N() != cfg.N {
		return nil, nil, fmt.Errorf("balancer built for %d processors, config says %d", bal.N(), cfg.N)
	}
	pattern, err := cfg.NewPattern(run, patternRNG)
	if err != nil {
		return nil, nil, err
	}
	stride := cfg.statsStride()
	rec := &recorder{
		cfg: cfg,
		run: run,
		bal: bal,
		out: runResult{
			avg:       stats.NewSeriesStride(cfg.Steps, stride),
			min:       stats.NewSeriesStride(cfg.Steps, stride),
			max:       stats.NewSeriesStride(cfg.Steps, stride),
			spread:    stats.NewSeriesStride(cfg.Steps, stride),
			snapshots: make(map[int][]float64, len(cfg.SnapshotAt)),
		},
		snapshot: make(map[int]bool, len(cfg.SnapshotAt)),
	}
	for _, t := range cfg.SnapshotAt {
		rec.snapshot[t] = true
	}
	return rec, pattern, nil
}

// endTick records tick t once the engine has finished it: on a sampled
// tick the load statistics of the partial scan returns (scan is called on
// those ticks only), the load vector if cfg.SnapshotAt names t, and the
// Observe call.
func (rec *recorder) endTick(t int, scan func() stats.LoadPartial) {
	out := &rec.out
	if out.avg.Sampled(t) {
		p := scan()
		out.avg.Add(t, p.Mean())
		out.min.Add(t, float64(p.Min))
		out.max.Add(t, float64(p.Max))
		out.spread.Add(t, float64(p.Max-p.Min))
	}
	if rec.snapshot[t] {
		out.snapshots[t] = rec.loadVector()
	}
	if rec.cfg.Observe != nil {
		rec.cfg.Observe(rec.run, t, rec.bal)
	}
}

// scanLoads is the sequential engine's load scan: one pass over the
// balancer's loads.
func (rec *recorder) scanLoads() stats.LoadPartial {
	rec.loads = rec.bal.Loads(rec.loads)
	var p stats.LoadPartial
	for _, v := range rec.loads {
		p.Observe(v)
	}
	return p
}

// loadVector returns every processor's load.
func (rec *recorder) loadVector() []float64 {
	v := make([]float64, rec.cfg.N)
	for i := range v {
		v[i] = float64(rec.bal.Load(i))
	}
	return v
}

// finish closes the run: a *core.System balancer's counters, which must
// already hold every lane's and worker's share, and its invariant check;
// then the final loads.
func (rec *recorder) finish() runResult {
	if sys, ok := rec.bal.(*core.System); ok {
		rec.out.metrics = sys.Metrics()
		if err := sys.CheckInvariants(); err != nil {
			rec.out.err = fmt.Errorf("invariant violation after run: %w", err)
			return rec.out
		}
	}
	rec.out.finalLoads = rec.loadVector()
	return rec.out
}
