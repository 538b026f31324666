package experiments

import (
	"slices"
	"strings"
	"testing"

	"lmbalance/internal/cluster"
)

func TestFaultSweepQuick(t *testing.T) {
	res, err := FaultSweep(ScaleQuick, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("expected 12 rows (4 drop rates × 3 crash counts), got %d", len(res.Rows))
	}
	var faultFree *FaultRow
	for i := range res.Rows {
		row := &res.Rows[i]
		if !row.Conserved {
			t.Fatalf("drop=%.2f crashes=%d: packet conservation violated", row.DropP, row.CrashCount)
		}
		if row.AbortedFrac < 0 || row.AbortedFrac > 1 {
			t.Fatalf("drop=%.2f crashes=%d: abort fraction %v", row.DropP, row.CrashCount, row.AbortedFrac)
		}
		if row.DropP == 0 && row.CrashCount == 0 {
			faultFree = row
		}
		if row.DropP == 0 && row.CrashCount == 0 && (row.Dropped != 0 || row.Timeouts != 0) {
			t.Fatalf("fault-free cell recorded %d drops, %d timeouts", row.Dropped, row.Timeouts)
		}
		if row.DropP >= 0.2 && row.Timeouts == 0 {
			t.Fatalf("drop=%.2f crashes=%d: heavy loss never tripped an initiator timeout", row.DropP, row.CrashCount)
		}
		// Every initiated operation completed, aborted for a reason the
		// registry names, or was wiped by a crash — and only a crash
		// wipes one, at most one per crash.
		sum := row.Completed + row.LostAtCrash
		for _, v := range row.Aborts {
			sum += v
		}
		if sum != row.Initiated {
			t.Fatalf("drop=%.2f crashes=%d: completed %d + aborts %v + lost at crash %d != initiated %d",
				row.DropP, row.CrashCount, row.Completed, row.Aborts, row.LostAtCrash, row.Initiated)
		}
		if row.LostAtCrash < 0 || row.LostAtCrash > int64(row.CrashCount) {
			t.Fatalf("drop=%.2f crashes=%d: %d operations lost at a crash", row.DropP, row.CrashCount, row.LostAtCrash)
		}
		// A netsim port never fails a send.
		if i := slices.Index(cluster.AbortReasons[:], cluster.AbortLinkDown); row.Aborts[i] != 0 {
			t.Fatalf("drop=%.2f crashes=%d: %d link_down aborts", row.DropP, row.CrashCount, row.Aborts[i])
		}
	}
	if faultFree == nil {
		t.Fatal("grid is missing the fault-free cell")
	}
	out := checkRender(t, res, "9ea9c1d535a7e4e4")
	if !strings.Contains(out, "Fault sensitivity") || !strings.Contains(out, "conserved") {
		t.Fatalf("render output incomplete:\n%s", out)
	}
}
