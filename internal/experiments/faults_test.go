package experiments

import (
	"bytes"
	"strings"
	"testing"
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
	}
	if faultFree == nil {
		t.Fatal("grid is missing the fault-free cell")
	}
	out := checkRender(t, res, "26b2c0514f2286ef")
	if !strings.Contains(out, "Fault sensitivity") || !strings.Contains(out, "conserved") {
		t.Fatalf("render output incomplete:\n%s", out)
	}
}

// TestFaultSweepDeterministic: the sweep runs on the virtual-time
// simulator, so the artifact is a pure function of (scale, seed) —
// rendering it twice gives the same bytes.
func TestFaultSweepDeterministic(t *testing.T) {
	render := func() string {
		res, err := FaultSweep(ScaleQuick, 15)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("same seed, different artifacts:\n%s\n%s", a, b)
	}
}
