// Benchmarks regenerating every table and figure of the paper, one
// testing.B target per artifact (run with -benchtime=1x for a single
// regeneration), plus micro-benchmarks of the core operations. The
// reported custom metrics carry the headline numbers of each artifact so
// a bench run doubles as a smoke reproduction; cmd/paperfigs renders the
// full tables.
package lmbalance_test

import (
	"fmt"
	"runtime"
	"testing"

	"lmbalance"
	"lmbalance/internal/core"
	"lmbalance/internal/experiments"
	"lmbalance/internal/netsim"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/theory"
	"lmbalance/internal/topology"
	"lmbalance/internal/workload"
)

// BenchmarkFig6VariationDensity regenerates Fig. 6 (variation density
// curves over δ, f, n, steps).
func BenchmarkFig6VariationDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Ns) - 1
		b.ReportMetric(res.Final(0, last), "VD(δ=1,f=1.1)")
		b.ReportMetric(res.Final(2, last), "VD(δ=4,f=1.1)")
	}
}

// BenchmarkFig7BalancingQualityDelta1 regenerates Fig. 7 (δ=1 panels).
func BenchmarkFig7BalancingQualityDelta1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Panels(experiments.Fig7Panels, experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.TailSpread(res.Results[0]), "spread(f=1.1)")
		b.ReportMetric(experiments.TailSpread(res.Results[1]), "spread(f=1.8)")
	}
}

// BenchmarkFig8BalancingQualityDelta4 regenerates Fig. 8 (δ=4 panels).
func BenchmarkFig8BalancingQualityDelta4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Panels(experiments.Fig8Panels, experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.TailSpread(res.Results[0]), "spread(f=1.1)")
		b.ReportMetric(experiments.TailSpread(res.Results[1]), "spread(f=1.8)")
	}
}

// BenchmarkFig9DistributionDelta1 regenerates Fig. 9 (distribution
// snapshots, δ=1).
func BenchmarkFig9DistributionDelta1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Panels(experiments.Fig7Panels, experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.EnvelopeWidth(0, 400), "envelope@400(f=1.1)")
	}
}

// BenchmarkFig10DistributionDelta4 regenerates Fig. 10 (distribution
// snapshots, δ=4).
func BenchmarkFig10DistributionDelta4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Panels(experiments.Fig8Panels, experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.EnvelopeWidth(0, 400), "envelope@400(f=1.1)")
	}
}

// BenchmarkTable1BorrowStats regenerates Table 1 (borrowing statistics
// for C ∈ {4,8,16,32}).
func BenchmarkTable1BorrowStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metrics[0].TotalBorrow, "totalBorrow(C=4)")
		b.ReportMetric(res.Metrics[0].RemoteBorrow, "remoteBorrow(C=4)")
		b.ReportMetric(res.Metrics[3].RemoteBorrow, "remoteBorrow(C=32)")
	}
}

// BenchmarkTheorem1Convergence regenerates the §3 validation table
// (measured expected-load ratio vs G^t(1)/FIX bounds).
func BenchmarkTheorem1Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TheoremCheck(experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].MeasuredRatio, "ratio(n=64,δ=1,f=1.1)")
		b.ReportMetric(res.Rows[1].Fix, "FIX(n=64,δ=1,f=1.1)")
	}
}

// BenchmarkLemma5DecreaseCost regenerates the §6 decrease-cost comparison
// (Lemma 5/6 bounds vs simulation).
func BenchmarkLemma5DecreaseCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.DecreaseCost(experiments.ScaleQuick, uint64(i)+1)
		b.ReportMetric(res.Rows[0].SimMean, "sim(f=1.1)")
		b.ReportMetric(float64(res.Rows[0].Improved), "lemma6(f=1.1)")
	}
}

// BenchmarkBaselines regenerates the extension comparison against the
// baseline algorithms.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.BaselineComparison(experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Name == "LM(f=1.1,δ=1)" {
				b.ReportMetric(row.MeanSpreadTail, "spreadLM")
			}
			if row.Name == "nobalance" {
				b.ReportMetric(row.MeanSpreadTail, "spreadNoBalance")
			}
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablation tables.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablations(experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ParamSweep[0].MeanSpreadTail, "spread(δ=1,f=1.1)")
	}
}

// BenchmarkGrowthCost regenerates the §6 distribution-cost table
// (Lemma 4 reconstruction).
func BenchmarkGrowthCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.GrowthCost(experiments.ScaleQuick, uint64(i)+1)
		b.ReportMetric(res.Rows[0].SimMean, "ops(f=1.1)")
		b.ReportMetric(float64(res.Rows[0].Predicted), "closedform(f=1.1)")
	}
}

// BenchmarkScaling regenerates the Theorem 2 network-size-independence
// table (n = 16..1024 at quick scale).
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scaling(experiments.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
		b.ReportMetric(first.RatioOneProducer, fmt.Sprintf("ratio(n=%d)", first.N))
		b.ReportMetric(last.RatioOneProducer, fmt.Sprintf("ratio(n=%d)", last.N))
	}
}

// BenchmarkShardedEngine measures the sharded within-run engine on the
// mixed workload at workers = 1 and workers = GOMAXPROCS. The two
// sub-benchmarks of one n simulate the exact same (seed, shards) system —
// worker count is pure execution parallelism — so their ratio is the
// within-run speedup (the benchmark ledger's sim.proc_steps_per_s.w1 and
// sim.parallel_efficiency: bash bench/run.sh --workload sim_sharded
// --trace 1). n = 65 536 is the sim_sharded workload's size, where the
// rows outgrow the caches and a random partner's row is a cache miss.
func BenchmarkShardedEngine(b *testing.B) {
	const steps, shards = 30, 64
	for _, n := range []int{16384, 65536} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				benchShardedEngine(b, n, steps, shards, workers)
			})
		}
	}
}

func benchShardedEngine(b *testing.B, n, steps, shards, workers int) {
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			N: n, Steps: steps, Runs: 1, Seed: 1,
			Shards: shards, Workers: workers, StatsEvery: steps,
			NewBalancer: func(run int, r *rng.RNG) (sim.Balancer, error) {
				return core.NewSystem(n, core.Params{F: 1.1, Delta: 1, C: 4}, topology.NewGlobal(n), r)
			},
			NewPattern: func(run int, r *rng.RNG) (workload.Pattern, error) {
				return workload.Uniform{GenP: 0.5, ConP: 0.4}, nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Avg.At(steps-1).Mean(), "finalAvg")
	}
	b.ReportMetric(float64(n*steps)/(float64(b.Elapsed().Nanoseconds())/float64(b.N))*1e9, "procSteps/sec")
}

// benchNs are the network sizes of the core micro-benchmarks. The sparse
// class storage keeps per-operation cost tied to the participants' active
// classes rather than n; the n=4096 cases were unusable with the dense
// O(n²) representation. The benchmark ledger's core.balance_op_ns.d1/.d4,
// core.gen_consume_ns and core.new_system_ms are these benchmarks at
// n = 4096 (bash bench/run.sh --workload sim_sharded --trace 1).
var benchNs = []int{64, 256, 1024, 4096}

// BenchmarkBalanceOp measures one full δ+1-way balancing operation
// (selection, the fused merge–snake pass over the participants' rows,
// trigger/marker bookkeeping) on a warmed-up system: benchNs at eight
// packets a processor, plus the sharded benchmark's n = 65 536 at sixteen,
// where a row holds sixteen classes — the regime in which two
// participants' rows interleave class by class.
func BenchmarkBalanceOp(b *testing.B) {
	type size struct{ n, packets int }
	var sizes []size
	for _, n := range benchNs {
		sizes = append(sizes, size{n, 8})
	}
	sizes = append(sizes, size{65536, 16})
	for _, sz := range sizes {
		n := sz.n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := core.NewSystem(n, core.Params{F: 1.1, Delta: 1, C: 4}, topology.NewGlobal(n), rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n*sz.packets; i++ {
				s.Generate(i % n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ForceBalance(i % n)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.NNZ())/float64(n), "activeClasses/proc")
		})
	}
}

// BenchmarkGenerateConsume measures the steady-state generate/consume mix
// (55% generate), including any balancing operations the factor-f trigger
// fires along the way.
func BenchmarkGenerateConsume(b *testing.B) {
	for _, n := range benchNs {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := core.NewSystem(n, core.Params{F: 1.1, Delta: 1, C: 4}, topology.NewGlobal(n), rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(2)
			for i := 0; i < n*4; i++ {
				s.Generate(i % n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % n
				if r.Bernoulli(0.55) {
					s.Generate(p)
				} else {
					s.Consume(p)
				}
			}
		})
	}
}

// BenchmarkNewSystem measures system construction. With sparse storage it
// allocates O(n) bookkeeping instead of two n×n matrices (268 MB at
// n=4096 before the rework).
func BenchmarkNewSystem(b *testing.B) {
	for _, n := range benchNs {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sel := topology.NewGlobal(n)
			r := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewSystem(n, core.Params{F: 1.1, Delta: 1, C: 4}, sel, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetsimMessageCost measures the message-passing realization:
// wall time and messages per completed balancing protocol.
func BenchmarkNetsimMessageCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := netsim.Run(netsim.Config{
			N: 32, Delta: 1, F: 1.2, Steps: 2000,
			GenP: []float64{0.6}, ConP: []float64{0.4}, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		var completed int64
		for _, n := range res.Nodes {
			completed += n.Completed
		}
		if completed > 0 {
			b.ReportMetric(float64(res.Messages())/float64(completed), "msgs/op")
		}
	}
}

// BenchmarkSimulatePaperRun measures one full §7 simulation run (64
// processors, 500 steps).
func BenchmarkSimulatePaperRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lmbalance.SimulatePaper(lmbalance.DefaultParams(), 1, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVDMonteCarloFig6Cell measures one Fig. 6 cell (n=35, δ=4,
// f=1.1, 150 steps, 1000 graphs).
func BenchmarkVDMonteCarloFig6Cell(b *testing.B) {
	cfg := theory.VDConfig{N: 35, Delta: 4, F: 1.1, Steps: 150, Mode: theory.VDTrue}
	for i := 0; i < b.N; i++ {
		if _, err := theory.VDMonteCarlo(cfg, 1000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
