// Command lbsim runs one configurable simulation of the Lüling–Monien
// load balancing algorithm (or a baseline) under a synthetic workload and
// prints the balancing-quality series and activity counters.
//
// Examples:
//
//	lbsim -n 64 -steps 500 -f 1.1 -delta 1 -c 4 -runs 100
//	lbsim -algo rsu -pattern hotspot -n 64
//	lbsim -topology torus -delta 4
//	lbsim -algo netsim -drop 0.2 -crash 4        # message-passing run with faults
//	lbsim -algo netsim -metrics-dump             # JSON metrics registry after the run
//	lbsim -n 1000000 -shards 64 -pattern oneproducer -stats-every 8000000
//	lbsim -n 4096 -cpuprofile cpu.out            # profile the hot path
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"lmbalance/internal/baseline"
	"lmbalance/internal/core"
	"lmbalance/internal/netsim"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/topology"
	"lmbalance/internal/trace"
	"lmbalance/internal/workload"
)

func main() {
	var (
		n       = flag.Int("n", 64, "number of processors")
		steps   = flag.Int("steps", 500, "global time steps")
		runs    = flag.Int("runs", 10, "independent runs")
		seed    = flag.Uint64("seed", 1, "master seed")
		f       = flag.Float64("f", 1.1, "trigger factor f")
		delta   = flag.Int("delta", 1, "neighborhood size δ")
		c       = flag.Int("c", 4, "borrow capacity C")
		algo    = flag.String("algo", "lm", "algorithm: lm, nobalance, scatter, rsu, diffusion, gradient, netsim")
		topo    = flag.String("topology", "global", "candidate selection: global, ring, torus, hypercube, debruijn")
		pattern = flag.String("pattern", "paper", "workload: paper, uniform, hotspot, burst, oneproducer")
		every   = flag.Int("every", 25, "print the series every k steps")
		record  = flag.String("record", "", "sample the workload into a CSV trace file and exit")
		replay  = flag.String("replay", "", "replay a CSV trace file as the workload (overrides -pattern)")
		drop    = flag.Float64("drop", 0, "netsim only: control-message drop probability in [0,1]")
		delay   = flag.Int("delay", 0, "netsim only: maximum extra delivery delay of a control message, in ticks")
		crash   = flag.Int("crash", 0, "netsim only: number of staggered fail-stop crashes per run")
		dump    = flag.Bool("metrics-dump", false, "print the run's metrics registry as JSON after the run")

		shards     = flag.Int("shards", 0, "partition each run into this many shards stepped in parallel (0 = sequential engine; requires -algo lm)")
		workers    = flag.Int("workers", 0, "cap worker goroutines (0 = GOMAXPROCS); never changes results")
		statsEvery = flag.Int("stats-every", 0, "sample the per-step load scan every k steps (0 = every step)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()

	o := options{
		n: *n, steps: *steps, runs: *runs, seed: *seed,
		f: *f, delta: *delta, c: *c,
		algo: *algo, topo: *topo, pattern: *pattern, every: *every,
		record: *record, replay: *replay,
		drop: *drop, delay: *delay, crash: *crash,
		metricsDump: *dump,
		shards:      *shards,
		workers:     *workers,
		statsEvery:  *statsEvery,
	}
	if *cpuprofile != "" {
		file, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
	if *memprofile != "" {
		file, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		runtime.GC() // surface live allocations, not transient garbage
		if err := pprof.WriteHeapProfile(file); err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		file.Close()
	}
}

// options carries the parsed flags.
type options struct {
	n, steps, runs      int
	seed                uint64
	f                   float64
	delta, c            int
	algo, topo, pattern string
	every               int
	record, replay      string
	drop                float64
	delay, crash        int
	metricsDump         bool
	shards, workers     int
	statsEvery          int
}

// metricsOut is where -metrics-dump writes; a variable so tests can
// capture the dump without redirecting the process stdout.
var metricsOut io.Writer = os.Stdout

// dumpMetrics writes the registry as JSON when -metrics-dump asked for
// one (reg is nil otherwise).
func dumpMetrics(reg *obs.Registry) error {
	if reg == nil {
		return nil
	}
	return reg.WriteJSON(metricsOut)
}

// graphFor maps a topology name to its graph; global selection has none.
func graphFor(topo string, n int) (*topology.Graph, error) {
	switch topo {
	case "global":
		return nil, nil
	case "ring":
		return topology.Ring(n), nil
	case "torus":
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return nil, fmt.Errorf("torus needs a square processor count, got %d", n)
		}
		return topology.Torus2D(side, side), nil
	case "hypercube":
		dim := 0
		for 1<<dim < n {
			dim++
		}
		if 1<<dim != n {
			return nil, fmt.Errorf("hypercube needs a power-of-two processor count, got %d", n)
		}
		return topology.Hypercube(dim), nil
	case "debruijn":
		dim := 0
		for 1<<dim < n {
			dim++
		}
		if 1<<dim != n {
			return nil, fmt.Errorf("de Bruijn needs a power-of-two processor count, got %d", n)
		}
		return topology.DeBruijn(dim), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}

func run(o options) error {
	var reg *obs.Registry
	if o.metricsDump {
		reg = obs.NewRegistry()
	}
	if o.algo == "netsim" {
		if o.shards != 0 || o.statsEvery != 0 {
			return fmt.Errorf("-shards/-stats-every drive the synchronous engine; -algo netsim has neither")
		}
		if err := runNetsim(o, reg); err != nil {
			return err
		}
		return dumpMetrics(reg)
	}
	if o.drop != 0 || o.delay != 0 || o.crash != 0 {
		return fmt.Errorf("-drop/-delay/-crash require -algo netsim (the synchronous simulator has no network to fault)")
	}
	if o.shards != 0 && o.algo != "lm" {
		return fmt.Errorf("-shards requires -algo lm (the sharded engine steps the core system's lanes directly)")
	}
	n, steps, runs, seed := o.n, o.steps, o.runs, o.seed
	f, delta, c := o.f, o.delta, o.c
	algo, topo, pattern, every := o.algo, o.topo, o.pattern, o.every
	selector := func() (topology.Selector, error) {
		g, err := graphFor(topo, n)
		if err != nil {
			return nil, err
		}
		if g == nil {
			return topology.NewGlobal(n), nil
		}
		return topology.NewNeighborhood(g), nil
	}

	newPattern := func(run int, r *rng.RNG) (workload.Pattern, error) {
		if o.replay != "" {
			file, err := os.Open(o.replay)
			if err != nil {
				return nil, err
			}
			defer file.Close()
			tr, err := workload.ReadTrace(file)
			if err != nil {
				return nil, err
			}
			if tr.Procs() > n {
				return nil, fmt.Errorf("trace addresses %d processors, simulation has %d", tr.Procs(), n)
			}
			return tr, nil
		}
		switch pattern {
		case "paper":
			b := workload.PaperBounds()
			b.Horizon = steps
			return workload.NewPhases(n, b, r)
		case "uniform":
			return workload.Uniform{GenP: 0.5, ConP: 0.4}, nil
		case "hotspot":
			return workload.Hotspot{Hot: 1 + n/16, GenP: 0.9, ConP: 0.3}, nil
		case "burst":
			return workload.Burst{BurstLen: 50, DrainLen: 50, HighG: 0.8, HighC: 0.8}, nil
		case "oneproducer":
			return workload.OneProducer{}, nil
		default:
			return nil, fmt.Errorf("unknown pattern %q", pattern)
		}
	}

	newBalancer := func(run int, r *rng.RNG) (sim.Balancer, error) {
		switch algo {
		case "lm":
			sel, err := selector()
			if err != nil {
				return nil, err
			}
			return core.NewSystem(n, core.Params{F: f, Delta: delta, C: c}, sel, r)
		case "nobalance":
			return baseline.NewNoBalance(n), nil
		case "scatter":
			return baseline.NewRandomScatter(n, r), nil
		case "rsu":
			return baseline.NewRSU(n, 1, r), nil
		case "diffusion":
			side := 1
			for side*side < n {
				side++
			}
			if side*side != n {
				return nil, fmt.Errorf("diffusion torus needs a square processor count")
			}
			return baseline.NewDiffusion(topology.Torus2D(side, side), 1, 0)
		case "gradient":
			side := 1
			for side*side < n {
				side++
			}
			if side*side != n {
				return nil, fmt.Errorf("gradient torus needs a square processor count")
			}
			return baseline.NewGradient(topology.Torus2D(side, side), 2, 8, 1)
		default:
			return nil, fmt.Errorf("unknown algorithm %q", algo)
		}
	}

	if o.record != "" {
		pat, err := newPattern(0, rng.New(seed))
		if err != nil {
			return err
		}
		events := workload.Record(pat, n, steps, rng.New(seed).Split())
		file, err := os.Create(o.record)
		if err != nil {
			return err
		}
		if err := workload.WriteTrace(file, events); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Printf("recorded %d events to %s\n", len(events), o.record)
		return nil
	}

	cfg := sim.Config{
		N: n, Steps: steps, Runs: runs, Seed: seed,
		Shards: o.shards, Workers: o.workers, StatsEvery: o.statsEvery,
		NewBalancer: newBalancer,
		NewPattern:  newPattern,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}

	tb := trace.NewTable(
		fmt.Sprintf("%s | %s workload | n=%d steps=%d runs=%d", algo, pattern, n, steps, runs),
		"step", "avg", "min", "max", "spread")
	for s := every - 1; s < steps; s += every {
		if !res.Avg.Sampled(s) {
			continue
		}
		tb.AddRow(s+1,
			res.Avg.At(s).Mean(), res.Min.At(s).Min(), res.Max.At(s).Max(),
			res.Spread.At(s).Mean())
	}
	if err := tb.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nfinal-load variation density: %.4f\n", res.FinalLoadVD)
	if algo == "lm" {
		m := res.CoreMetrics.Scale(runs)
		fmt.Printf("per-run: balance ops %.1f, migrations %.1f, total borrow %.2f, remote borrow %.3f, borrow fail %.3f, decrease sim %.2f\n",
			m.BalanceOps, m.Migrations, m.TotalBorrow, m.RemoteBorrow, m.BorrowFail, m.DecreaseSim)
	}
	if reg != nil {
		// The synchronous engine has no live instrumentation hooks, so
		// the dump publishes the aggregate outcome: run count, total
		// balancing activity, and the final-load variation density (a
		// single-sample histogram whose mean is the value).
		reg.Counter("sim_runs_total").Add(int64(runs))
		reg.Counter("sim_balance_ops_total").Add(int64(res.CoreMetrics.BalanceOps))
		reg.Counter("sim_migrations_total").Add(int64(res.CoreMetrics.Migrations))
		reg.Histogram("sim_final_load_vd", obs.ExpBuckets(0.01, 2, 12)).Observe(res.FinalLoadVD)
	}
	return dumpMetrics(reg)
}

// netsimRates maps a workload pattern name to per-node generate/consume
// probability vectors for the message-passing simulator, which has no notion
// of the engine's time-phased patterns.
func netsimRates(pattern string, n int) (gen, con []float64, err error) {
	switch pattern {
	case "uniform":
		return []float64{0.5}, []float64{0.4}, nil
	case "hotspot":
		gen = make([]float64, n)
		con = make([]float64, n)
		hot := 1 + n/16
		for i := range gen {
			if i < hot {
				gen[i], con[i] = 0.9, 0.1
			} else {
				gen[i], con[i] = 0.1, 0.3
			}
		}
		return gen, con, nil
	default:
		return nil, nil, fmt.Errorf("pattern %q not supported by -algo netsim (use uniform or hotspot)", pattern)
	}
}

// runNetsim drives the virtual-time message-passing simulation, with the
// optional fault layer (-drop, -delay, -crash). A non-nil registry
// accumulates every run's cluster_* and netsim_* totals for -metrics-dump.
func runNetsim(o options, reg *obs.Registry) error {
	if o.record != "" || o.replay != "" {
		return fmt.Errorf("-record/-replay are engine workload traces; -algo netsim does not support them")
	}
	if o.crash < 0 {
		return fmt.Errorf("-crash = %d, need >= 0", o.crash)
	}
	graph, err := graphFor(o.topo, o.n)
	if err != nil {
		return err
	}
	gen, con, err := netsimRates(o.pattern, o.n)
	if err != nil {
		return err
	}
	tb := trace.NewTable(
		fmt.Sprintf("netsim | %s workload | n=%d steps=%d drop=%g delay=%d crash=%d",
			o.pattern, o.n, o.steps, o.drop, o.delay, o.crash),
		"run", "spread", "msgs per op", "abort frac", "timeouts", "self-releases", "msgs lost", "conserved")
	var sumSpread, sumMsgs, sumAbort float64
	for run := 0; run < o.runs; run++ {
		crashes := make([]netsim.Crash, o.crash)
		for i := range crashes {
			// Stagger the crashes over nodes and over the middle half of
			// the run so recovery overlaps ongoing balancing.
			crashes[i] = netsim.Crash{
				Node:   (i*7 + 3) % o.n,
				AtStep: o.steps/4 + i*(o.steps/2)/o.crash,
			}
		}
		res, err := netsim.Run(netsim.Config{
			N: o.n, Delta: o.delta, F: o.f, Steps: o.steps,
			GenP: gen, ConP: con, Graph: graph, Obs: reg,
			Seed: rng.Mix64(o.seed, uint64(run)),
			Faults: netsim.Faults{
				DropP:    o.drop,
				DelayMax: o.delay,
				Crashes:  crashes,
				Seed:     rng.Mix64(o.seed^0xfa17fa17fa17fa17, uint64(run)),
			},
		})
		if err != nil {
			return err
		}
		initiated, completed := res.Initiated(), res.Completed()
		msgsPerOp, abortFrac := 0.0, 0.0
		if completed > 0 {
			msgsPerOp = float64(res.Messages()) / float64(completed)
		}
		if initiated > 0 {
			abortFrac = float64(initiated-completed) / float64(initiated)
		}
		conserved := "yes"
		if !res.Conserved() {
			conserved = "NO"
		}
		tb.AddRow(run, res.Spread(), msgsPerOp, abortFrac, res.Timeouts(), res.FreezeExpired(), res.Lost(), conserved)
		sumSpread += float64(res.Spread())
		sumMsgs += msgsPerOp
		sumAbort += abortFrac
	}
	if err := tb.WriteText(os.Stdout); err != nil {
		return err
	}
	r := float64(o.runs)
	fmt.Printf("\nmean over %d runs: spread %.1f, msgs per op %.2f, abort frac %.3f\n",
		o.runs, sumSpread/r, sumMsgs/r, sumAbort/r)
	return nil
}
