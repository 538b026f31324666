package experiments

import (
	"strings"
	"testing"
)

func TestServeSLOQuick(t *testing.T) {
	res, err := ServeSLO(ScaleQuick, 1993)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("expected 2 arms, got %d", len(res.Arms))
	}
	for _, a := range res.Arms {
		if a.Completed != a.Submitted {
			t.Errorf("%s: completed %d of %d", a.Mode, a.Completed, a.Submitted)
		}
		if a.P50 < 0 || a.P50 > a.P99 {
			t.Errorf("%s: quantiles out of order: p50 %v p99 %v", a.Mode, a.P50, a.P99)
		}
		if a.Throughput <= 0 {
			t.Errorf("%s: throughput %v", a.Mode, a.Throughput)
		}
	}
	none, bal := res.arm("none"), res.arm("balanced")
	if none == nil || bal == nil {
		t.Fatal("missing arms")
	}
	if none.Ops != 0 {
		t.Errorf("no-balancing arm completed %d balancing ops", none.Ops)
	}
	if bal.Ops == 0 {
		t.Error("balanced arm completed no balancing ops under a hot-node workload")
	}
	// The experiment's whole point: balancing improves the tail.
	if bal.P99 >= none.P99 {
		t.Errorf("balanced p99 %.2fms not better than no-balancing %.2fms",
			bal.P99*1e3, none.P99*1e3)
	}

	if out := checkRender(t, res, "e481f701674ac158"); !strings.Contains(out, "balancing vs none") {
		t.Errorf("render missing the verdict:\n%s", out)
	}
}
