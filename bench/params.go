package main

import (
	"time"

	"lmbalance/internal/rng"
	"lmbalance/internal/workload"
)

// Frozen workload parameters. They were calibrated once on the 2-core
// host the baseline under bench/baseline/ was captured on and are part
// of the benchmark's definition: changing one re-bases every number.

// latencyLimit is the serving SLO: a job meets it when its client-side
// sojourn (due time → CDone arrival) is at most this long.
const latencyLimit = 100 * time.Millisecond

// Balancing parameters shared by every cluster workload.
const (
	clusterDelta = 2
	clusterF     = 1.2
)

// serve_skew: open loop against 4 TCP-linked nodes.
const (
	skewNodes = 4
	// skewStepInterval is the service clock: 500 units/s/node at ConP = 1.
	// It is 2 ms, not the issue's 200 µs, because the clock has to be one
	// the runtime keeps: a Go ticker shorter than a millisecond fires when
	// the process next wakes (an idle runtime sleeps in whole milliseconds),
	// so the capacity it sets moved between 1 000 and 2 500 units/s/node
	// with how busy the process happened to be (see README).
	skewStepInterval = 2 * time.Millisecond
	skewCapacity     = skewNodes * float64(time.Second/skewStepInterval) // nominal units/s of the whole cluster
	skewHotShare     = 0.7                                               // front-end 0's share; front-end 1 takes the rest
	skewWarm         = 500 * time.Millisecond                            // leading arrivals left out of the statistics
	// skewDrain caps the wait for jobs still unfinished when the schedule
	// ends. Every job is waited for: the backlog a host stall leaves drains
	// in seconds, so a job unfinished after this long is lost, not late.
	skewDrain = 30 * time.Second
)

// skewDemand is the bounded-Pareto job size (mean ≈ 2.70 units).
var skewDemand = workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 100}

// skewRungs are the offered rates as shares of nominal cluster service
// capacity (skewNodes / skewStepInterval units/s over the mean demand).
var skewRungs = []struct {
	name  string
	share float64
}{{"r25", 0.25}, {"r50", 0.50}, {"r75", 0.75}}

// serve_firehose: closed loop against 4 loopback-linked nodes.
const (
	firehoseNodes        = 4
	firehoseStepInterval = 20 * time.Microsecond
	firehoseWindow       = 64               // jobs kept outstanding per client connection
	firehoseDrain        = 30 * time.Second // as skewDrain: a cap on a wait that ends when the last job does
)

// cluster_storm: 8 plain TCP nodes, free-running, pacing off.
const (
	stormNodes = 8
	stormConP  = 0.3
	stormHotP  = 0.9 // GenP of nodes 0–1
	stormColdP = 0.1 // GenP of the rest

	// stormTailShare is the slowest share of balancing operations whose
	// mean collect time is the storm's latency_tail_ms.
	stormTailShare = 0.05
)

// sim_sharded: the sharded engine on the mixed uniform workload.
const (
	simShards = 64
	simGenP   = 0.5
	simConP   = 0.4
)

// sizes are the knobs that trade run length for fidelity. The full set
// is what BENCHMARK.json measures; the smoke set lets go test exercise
// the same assembly in under a second per workload.
type sizes struct {
	simN          int           // processors
	simChunkSteps int           // steps per timed chunk (every chunk is the same simulation)
	simCheckSteps int           // steps of the Workers=1 vs Workers=N identity check
	stormSteps    int           // per-node steps of one timed cluster run
	firehoseWarm  int           // completions that make up the closed loop's warm-up
	subWindow     time.Duration // closed-loop statistics window
	skewSubWindow time.Duration // open-loop statistics window: long enough for 10 samples beyond p99
}

var fullSizes = sizes{
	simN: 65536, simChunkSteps: 100, simCheckSteps: 10,
	stormSteps: 60_000, firehoseWarm: 200_000,
	subWindow: 500 * time.Millisecond, skewSubWindow: 3 * time.Second,
}

var smokeSizes = sizes{
	simN: 2048, simChunkSteps: 10, simCheckSteps: 4,
	stormSteps: 2_000, firehoseWarm: 2_000,
	subWindow: 50 * time.Millisecond, skewSubWindow: 50 * time.Millisecond,
}

// Each workload draws its inputs from its own rng.Partition key, so
// adding a workload (a new key) never shifts another's stream. The
// values are part of the seed → input contract.
const (
	streamSkew rng.StreamKind = 101 + iota
	streamFirehose
	streamStorm
	streamSim
)

// Stream indices within a workload's key.
const (
	idxArrivals  = iota // arrival times and job sizes
	idxPlacement        // which front-end takes each job
	idxCluster          // the cluster's own seed
)
