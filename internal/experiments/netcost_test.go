package experiments

import (
	"strings"
	"testing"
)

func TestNetCostQuick(t *testing.T) {
	res, err := NetCost(ScaleQuick, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(res.Rows))
	}
	byName := map[string]NetCostRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.MsgsPerOp <= 0 {
			t.Fatalf("%s: no messages per op", row.Name)
		}
		if row.AbortedFrac < 0 || row.AbortedFrac >= 1 {
			t.Fatalf("%s: abort fraction %v", row.Name, row.AbortedFrac)
		}
	}
	// Message cost grows with δ: each op needs 2δ protocol messages plus
	// transfers.
	if byName["global δ=4"].MsgsPerOp <= byName["global δ=1"].MsgsPerOp {
		t.Fatalf("msgs/op did not grow with δ: %v vs %v",
			byName["global δ=1"].MsgsPerOp, byName["global δ=4"].MsgsPerOp)
	}
	if !strings.Contains(checkRender(t, res, "6a3b0162cce12e89"), "communication cost") {
		t.Fatal("render missing title")
	}
}

// TestCollisionRuleGate pins the checked-in virtual-time artifacts
// (results/netcost.txt, results/faults.txt: full scale, paperfigs'
// default seed). netsim is a pure function of its Config, so these are
// exact numbers, not samples: under the rule that a busy or silent
// partner drops out of an operation instead of aborting it, global δ=2
// on 64 nodes aborts 7.6 % of its operations at 5.99 msgs/op, and 11.6
// msgs/op at 20 % control-frame loss (abort-on-any-busy: 32 %, 8.29 and
// 171). The bounds leave room for a workload-neutral change and none
// for a return of the old rule.
func TestCollisionRuleGate(t *testing.T) {
	const seed = 1993
	nc, err := NetCost(ScaleFull, seed)
	if err != nil {
		t.Fatal(err)
	}
	var d2 *NetCostRow
	for i := range nc.Rows {
		if nc.Rows[i].Name == "global δ=2" {
			d2 = &nc.Rows[i]
		}
	}
	if d2 == nil || nc.N != 64 || nc.Steps != 3000 {
		t.Fatalf("netcost has no global δ=2 row at 64 nodes × 3000 steps: %+v", nc)
	}
	if d2.AbortedFrac > 0.10 || d2.MsgsPerOp > 6.5 {
		t.Fatalf("global δ=2: abort fraction %.4f (want ≤ 0.10), msgs/op %.2f (want ≤ 6.5)", d2.AbortedFrac, d2.MsgsPerOp)
	}
	if d2.PartnersPerOp < 1 || d2.PartnersPerOp > 2 {
		t.Fatalf("global δ=2: %.3f partners per op outside [1, δ]", d2.PartnersPerOp)
	}
	fs, err := FaultSweep(ScaleFull, seed)
	if err != nil {
		t.Fatal(err)
	}
	gated := false
	for _, row := range fs.Rows {
		if !row.Conserved {
			t.Fatalf("drop=%.2f crashes=%d: packet conservation violated", row.DropP, row.CrashCount)
		}
		if row.DropP == 0.2 && row.CrashCount == 0 {
			gated = true
			if row.MsgsPerOp > 15 {
				t.Fatalf("drop=0.2: %.1f msgs/op, want ≤ 15", row.MsgsPerOp)
			}
		}
	}
	if !gated {
		t.Fatal("fault sweep has no drop=0.2, crashes=0 cell")
	}
}
