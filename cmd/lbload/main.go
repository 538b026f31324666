// Command lbload generates production-shaped client traffic against a
// serving cluster (lbnode -serve-addr) and reports the sojourn-time
// distribution the clients actually observed.
//
// The workload is open loop: job arrivals follow a multi-period
// diurnal rate envelope (nonhomogeneous Poisson, e.g. a quiet phase
// alternating with a rush), each job's service demand is drawn from a
// heavy-tailed bounded-Pareto, and the submission schedule does not
// slow down when the cluster falls behind — exactly the regime where
// queueing delay explodes at a hot node while the cluster as a whole
// has headroom. Arrivals are skewed: with probability -hot-frac a job
// lands on one of the first -hot-n nodes.
//
// lbload submits the schedule to an already-running serving cluster
// and prints p50/p95/p99 sojourn and throughput:
//
//	lbload -targets 127.0.0.1:7400,127.0.0.1:7401 -rate 800x700ms,1300x300ms -duration 2s
//	lbload -targets ... -trace trace.json -tick 500us   # tracefile replay
//
// The no-balancing vs balanced comparison on one workload is
// experiments.ServeSLO, which runs the same nodes on netsim's virtual
// clock: go run ./cmd/paperfigs -full -only serve writes
// results/serve.txt. The real-socket numbers, with bounds, are the
// ledger's serve_skew workload (bash bench/run.sh --workload serve_skew).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lmbalance/internal/rng"
	"lmbalance/internal/serve"
	"lmbalance/internal/workload"
)

func main() {
	var (
		targets  = flag.String("targets", "", "comma-separated serving addresses (node order)")
		rate     = flag.String("rate", "800x700ms,1300x300ms", "diurnal rate envelope, jobs/s: rate1xdur1,rate2xdur2,...")
		duration = flag.Duration("duration", 2*time.Second, "submission horizon (the envelope cycles to fill it)")
		alpha    = flag.Float64("alpha", 1.5, "bounded-Pareto tail index for service demand")
		lmin     = flag.Float64("lmin", 1, "bounded-Pareto lower bound (units)")
		lmax     = flag.Float64("lmax", 100, "bounded-Pareto upper bound (units)")
		hotFrac  = flag.Float64("hot-frac", 0.7, "fraction of jobs aimed at the hot nodes")
		hotN     = flag.Int("hot-n", 0, "number of hot nodes (0 = n/4, min 1)")
		seed     = flag.Uint64("seed", 1993, "workload seed")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for outstanding jobs after the last submission")
		traceF   = flag.String("trace", "", "replay this tracefile instead of the synthetic workload")
		tick     = flag.Duration("tick", 500*time.Microsecond, "with -trace: wall-clock duration of one trace step")
		jsonOut  = flag.String("json", "", "also write the result as JSON to this file")
	)
	flag.Parse()
	o := opts{
		targets: *targets, rate: *rate, duration: *duration,
		alpha: *alpha, lmin: *lmin, lmax: *lmax, hotFrac: *hotFrac, hotN: *hotN,
		seed: *seed, drainTO: *drainTO,
		traceF: *traceF, tick: *tick, jsonOut: *jsonOut,
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "lbload:", err)
		os.Exit(1)
	}
}

type opts struct {
	targets    string
	rate       string
	duration   time.Duration
	alpha      float64
	lmin, lmax float64
	hotFrac    float64
	hotN       int
	seed       uint64
	drainTO    time.Duration
	traceF     string
	tick       time.Duration
	jsonOut    string
}

// schedule builds the arrival schedule: tracefile replay with -trace,
// synthetic envelope + Pareto otherwise.
func (o opts) schedule() ([]workload.Arrival, workload.RateEnvelope, workload.BoundedPareto, error) {
	demand := workload.BoundedPareto{Alpha: o.alpha, Lo: o.lmin, Hi: o.lmax}
	if o.traceF != "" {
		f, err := os.Open(o.traceF)
		if err != nil {
			return nil, nil, demand, err
		}
		defer f.Close()
		tr, err := workload.ReadTrace(f)
		if err != nil {
			return nil, nil, demand, fmt.Errorf("%s: %w", o.traceF, err)
		}
		arrivals, err := workload.TraceArrivals(tr, o.tick)
		return arrivals, nil, demand, err
	}
	env, err := workload.ParseEnvelope(o.rate)
	if err != nil {
		return nil, nil, demand, fmt.Errorf("-rate: %w", err)
	}
	spec := workload.ArrivalSpec{Env: env, Demand: demand, Horizon: o.duration}
	arrivals, err := spec.Schedule(rng.New(o.seed))
	return arrivals, env, demand, err
}

func (o opts) loadSpec(n int) serve.LoadSpec {
	hot := o.hotN
	if hot <= 0 {
		hot = n / 4
		if hot < 1 {
			hot = 1
		}
	}
	return serve.LoadSpec{HotFrac: o.hotFrac, HotN: hot}
}

// driveReport is the -json document.
type driveReport struct {
	Targets    []string `json:"targets"`
	Submitted  int64    `json:"submitted"`
	Completed  int64    `json:"completed"`
	P50MS      float64  `json:"p50_ms"`
	P95MS      float64  `json:"p95_ms"`
	P99MS      float64  `json:"p99_ms"`
	JobsPerSec float64  `json:"jobs_per_sec"`
	Seconds    float64  `json:"seconds"`
}

func run(o opts) error {
	var addrs []string
	for _, a := range strings.Split(o.targets, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("-targets lists no addresses")
	}
	arrivals, env, demand, err := o.schedule()
	if err != nil {
		return err
	}
	if env != nil {
		fmt.Printf("workload: %d jobs over %v (envelope %s, demand Pareto α=%g [%g,%g] mean %.2f units)\n",
			len(arrivals), o.duration, env, demand.Alpha, demand.Lo, demand.Hi, demand.Mean())
	} else {
		fmt.Printf("workload: %d jobs replayed from %s at %v/step\n", len(arrivals), o.traceF, o.tick)
	}
	res, err := serve.Drive(addrs, arrivals, o.loadSpec(len(addrs)), o.seed+1, o.drainTO)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %d  completed %d  p50 %.2fms  p95 %.2fms  p99 %.2fms  throughput %.0f jobs/s  elapsed %v\n",
		res.Submitted, res.Completed,
		res.P(0.50)*1e3, res.P(0.95)*1e3, res.P(0.99)*1e3,
		res.Throughput(), res.Elapsed.Round(time.Millisecond))
	if res.Completed < res.Submitted {
		return fmt.Errorf("%d jobs still outstanding after %v", res.Submitted-res.Completed, o.drainTO)
	}
	if o.jsonOut != "" {
		doc := driveReport{
			Targets: addrs, Submitted: res.Submitted, Completed: res.Completed,
			P50MS: res.P(0.50) * 1e3, P95MS: res.P(0.95) * 1e3, P99MS: res.P(0.99) * 1e3,
			JobsPerSec: res.Throughput(), Seconds: res.Elapsed.Seconds(),
		}
		if err := writeJSON(o.jsonOut, doc); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.jsonOut)
	}
	return nil
}

func writeJSON(path string, doc any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
