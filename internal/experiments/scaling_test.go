package experiments

import (
	"strings"
	"testing"
)

func TestScalingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow")
	}
	res, err := Scaling(ScaleQuick, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ScalingSizes(ScaleQuick)) {
		t.Fatal("missing rows")
	}
	for _, row := range res.Rows {
		// Theorem 2: the measured ratio respects f·FIX (with MC slack)
		// and FIX respects the n-independent limit.
		if row.RatioOneProducer > 1.1*row.Fix*1.25 {
			t.Fatalf("n=%d: ratio %v above bound", row.N, row.RatioOneProducer)
		}
		if row.Fix > row.Limit+1e-9 {
			t.Fatalf("n=%d: FIX %v above limit %v", row.N, row.Fix, row.Limit)
		}
	}
	// Size independence: the ratio at n=1024 is not materially worse than
	// at n=16.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.RatioOneProducer > first.RatioOneProducer*1.3 {
		t.Fatalf("ratio degraded with n: %v -> %v", first.RatioOneProducer, last.RatioOneProducer)
	}
	// Per-node balancing cost stays flat (within 2x across 64x size).
	if last.BalanceOpsPerProcStep > first.BalanceOpsPerProcStep*2 {
		t.Fatalf("per-node cost grew with n: %v -> %v",
			first.BalanceOpsPerProcStep, last.BalanceOpsPerProcStep)
	}
	if !strings.Contains(checkRender(t, res, "b3f3ec64c31470bf"), "Theorem 2 scaling") {
		t.Fatal("render missing title")
	}
}

func TestGrowthCostQuick(t *testing.T) {
	res := GrowthCost(ScaleQuick, 12)
	if len(res.Rows) != len(GrowthCases) {
		t.Fatal("missing rows")
	}
	for _, row := range res.Rows {
		// Closed form within 25% of simulation.
		lo, hi := row.SimMean*0.75, row.SimMean*1.25+5
		if float64(row.Predicted) < lo || float64(row.Predicted) > hi {
			t.Fatalf("%+v: closed form %d vs simulated %.1f", row.Case, row.Predicted, row.SimMean)
		}
	}
	// f-sensitivity.
	if !(res.Rows[3].SimMean < res.Rows[0].SimMean/5) {
		t.Fatalf("f=1.8 (%v) should be much cheaper than f=1.1 (%v)",
			res.Rows[3].SimMean, res.Rows[0].SimMean)
	}
	checkRender(t, res, "790f47d507a6c7dc")
}
