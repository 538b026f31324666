package experiments

import (
	"strings"
	"testing"
)

func TestAdversaryQuick(t *testing.T) {
	res, err := Adversary(ScaleQuick, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("expected 8 workloads, got %d", len(res.Rows))
	}
	if res.Bound < 1.3 || res.Bound > 1.4 {
		t.Fatalf("bound %v not f²δ/(δ+1−f) for defaults", res.Bound)
	}
	// The headline assertion: no random workload breaks Theorem 4 (small
	// Monte Carlo slack for 10-run expectations).
	if worst := res.Worst(); worst > res.Bound*1.1 {
		t.Fatalf("a workload broke the Theorem 4 bound: %v > %v", worst, res.Bound)
	}
	for _, row := range res.Rows {
		if row.WorstRatio <= 0 {
			t.Fatalf("%s: degenerate ratio %v", row.Workload, row.WorstRatio)
		}
	}
	if !strings.Contains(checkRender(t, res, "a2b25d179d8eb900"), "Theorem 4") {
		t.Fatal("render missing title")
	}
}
