package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/core"
	"lmbalance/internal/sim"
	"lmbalance/internal/theory"
	"lmbalance/internal/trace"
	"lmbalance/internal/workload"
)

// ScalingNs are the network sizes of the full-scale size-independence
// study; the quick scale stops at 1024 (see ScalingSizes). The sparse core
// (O(nnz+n) memory, balancing cost independent of n) makes n = 4096
// tractable; the dense representation previously capped the sweep at 1024.
var ScalingNs = []int{16, 64, 256, 1024, 4096}

// ScalingMillionN is the headline size the sharded engine adds at full
// scale: a million processors in one in-process run.
const ScalingMillionN = 1_000_000

// ScalingSizes returns the sweep sizes for a scale: quick keeps the
// CI-sized 16 → 1024 sweep, full runs every ScalingNs size and appends
// the million-processor row.
func ScalingSizes(scale Scale) []int {
	if scale != ScaleFull {
		return []int{16, 64, 256, 1024}
	}
	return append(append([]int(nil), ScalingNs...), ScalingMillionN)
}

// scalingShards picks the within-run shard count for one network size.
// The one-producer model always runs sharded: its workload is
// workload.Sparse, and the sharded engine's active-set fast path is what
// makes 8n steps at large n affordable (the sequential engine would pay
// O(n) pattern calls per tick for one active processor). The mixed
// workload runs sequentially below 65536 processors — at small n the
// per-run worker pool over 100 runs is the better parallelism — and
// sharded above.
func scalingShards(n int) int {
	if n < 64 {
		return n
	}
	return 64
}

// scalingMixedRuns returns the repetition count of the mixed-workload part
// for one size. All sizes the paper's hardware could reach use the full
// run count; the million-processor row pools 10⁶ processors per run, so a
// handful of runs already pins its per-processor averages, and 100 runs of
// a ~500 M-balancing-op simulation would dominate the whole sweep.
func scalingMixedRuns(scale Scale, n int) int {
	runs := scale.runs()
	if n >= ScalingMillionN && runs > 3 {
		runs = 3
	}
	return runs
}

// ScalingRow is one network size's measurement.
type ScalingRow struct {
	N int
	// Runs is the number of repetitions behind the one-producer ratio.
	Runs int
	// MixedRuns is the number of repetitions behind the mixed-workload
	// columns (smaller only for the million-processor row).
	MixedRuns int
	// RatioOneProducer is the measured E(l₁)/E(lᵢ) in the
	// one-processor-generator model.
	RatioOneProducer float64
	// Fix and Limit are the corresponding closed forms.
	Fix, Limit float64
	// SpreadMixed is the tail load spread under the uniform mixed
	// workload.
	SpreadMixed float64
	// BalanceOpsPerProcStep is balancing operations per processor per
	// step under the mixed workload — the per-node organizational cost.
	BalanceOpsPerProcStep float64
}

// ScalingResult is the Theorem 2 headline reproduction: the balancing
// quality of the purely local algorithm does not degrade with network
// size, and the per-processor cost stays flat.
type ScalingResult struct {
	Rows  []ScalingRow
	Steps int
	Runs  int
}

// Scaling measures the expected-load ratio (one-producer model) and the
// mixed-workload spread across network sizes — 16 up to one million
// processors at full scale.
func Scaling(scale Scale, seed uint64) (*ScalingResult, error) {
	out := &ScalingResult{Runs: scale.runs()}
	params := core.Params{F: 1.1, Delta: 1, C: 4}
	for i, n := range ScalingSizes(scale) {
		runs := scale.runs()
		mixedRuns := scalingMixedRuns(scale, n)
		// Scale the horizon with n so the per-processor load is large
		// enough (≈8 packets) that the ±1 integer granularity does not
		// swamp the expectation the theory speaks about.
		steps := 2000
		if 8*n > steps {
			steps = 8 * n
		}
		out.Steps = steps
		// One-producer ratio, on the sharded engine's sparse fast path.
		// Only the final-step snapshot is read, so the per-step load scan
		// is strided out entirely (StatsEvery = steps samples just the
		// last tick).
		cfg := sim.LMConfig(n, steps, runs, params, fixed(workload.OneProducer{}), seed+uint64(i))
		cfg.SnapshotAt = []int{steps - 1}
		cfg.Shards = scalingShards(n)
		cfg.StatsEvery = steps
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("scaling n=%d producer: %w", n, err)
		}

		// Mixed workload spread. Sequential (runs-parallel) below 65536
		// processors, sharded above; the million-processor row strides
		// the per-step statistics to every 5th tick to bound the O(n)
		// scan cost.
		mixed := sim.LMConfig(n, 500, mixedRuns, params, fixed(workload.Uniform{GenP: 0.5, ConP: 0.4}), seed+1000+uint64(i))
		if n >= 65536 {
			mixed.Shards = scalingShards(n)
			mixed.StatsEvery = 5
		}
		mres, err := sim.Run(mixed)
		if err != nil {
			return nil, fmt.Errorf("scaling n=%d mixed: %w", n, err)
		}
		perProcStep := float64(mres.CoreMetrics.BalanceOps) / float64(mixedRuns) / float64(n) / 500

		out.Rows = append(out.Rows, ScalingRow{
			N:                     n,
			Runs:                  runs,
			MixedRuns:             mixedRuns,
			RatioOneProducer:      producerRatio(res, steps-1),
			Fix:                   theory.FIX(n, params.Delta, params.F),
			Limit:                 theory.FixLimit(params.Delta, params.F),
			SpreadMixed:           TailSpread(mres),
			BalanceOpsPerProcStep: perProcStep,
		})
	}
	return out, nil
}

// Render writes the size-independence table.
func (r *ScalingResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Theorem 2 scaling: network-size independence (f=1.1, δ=1, %d runs)", r.Runs)); err != nil {
		return err
	}
	tb := trace.NewTable("balance quality and per-node cost vs network size",
		"n", "runs (1p/mixed)", "ratio (1-producer)", "FIX", "δ/(δ+1−f)", "spread (mixed)", "balance ops/proc/step")
	for _, row := range r.Rows {
		tb.AddRow(row.N, fmt.Sprintf("%d/%d", row.Runs, row.MixedRuns),
			row.RatioOneProducer, row.Fix, row.Limit,
			row.SpreadMixed, row.BalanceOpsPerProcStep)
	}
	return tb.WriteText(w)
}
