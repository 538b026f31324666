package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"lmbalance/internal/cluster"
)

// quickWireCost is one quick WireCost run and its render, shared by the
// bytes test and the abort-anatomy test that read different tables of it.
var quickWireCost = sync.OnceValues(func() (*WireCostResult, error) {
	return WireCost(ScaleQuick, 1)
})

func wireCostQuick(t *testing.T) (*WireCostResult, string) {
	t.Helper()
	res, err := quickWireCost()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("expected 6 rows (2 transports × 3 δ), got %d", len(res.Rows))
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

func TestWireCostQuickShape(t *testing.T) {
	res, out := wireCostQuick(t)
	byName := map[string]WireCostRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		// Over TCP at δ=4 almost every protocol collides (the freeze
		// window is socket-latency wide), so completed ops can be tiny
		// at quick scale — only require completions on inproc rows.
		if row.Ops == 0 && strings.HasPrefix(row.Name, "inproc") {
			t.Fatalf("%s: no balancing operation completed", row.Name)
		}
		if row.BytesPerMsg <= 0 {
			t.Fatalf("%s: no bytes accounted", row.Name)
		}
	}
	// TCP frames carry a length prefix on top of the payload, so the
	// mean wire message must be strictly larger than inproc's at the
	// same δ — that gap is the honesty the experiment exists for.
	for _, d := range []string{"δ=1", "δ=2", "δ=4"} {
		in, tc := byName["inproc "+d], byName["tcp "+d]
		if tc.BytesPerMsg <= in.BytesPerMsg {
			t.Fatalf("%s: tcp bytes/msg %v not above inproc %v", d, tc.BytesPerMsg, in.BytesPerMsg)
		}
		// Framing adds exactly one prefix byte for our tiny payloads.
		if tc.BytesPerMsg > in.BytesPerMsg+2 {
			t.Fatalf("%s: tcp framing overhead %v bytes/msg implausibly high",
				d, tc.BytesPerMsg-in.BytesPerMsg)
		}
	}
	for _, want := range []string{
		"Wire-level cluster cost", "bytes per op", "framing overhead",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAbortAnatomyQuickShape checks the abort anatomy WireCost reads off
// each of its six runs' registries.
func TestAbortAnatomyQuickShape(t *testing.T) {
	res, out := wireCostQuick(t)
	for _, row := range res.Rows {
		if row.Initiated == 0 {
			t.Fatalf("%s: no protocol ever initiated", row.Name)
		}
		if row.AbortedFrac < 0 || row.AbortedFrac > 1 {
			t.Fatalf("%s: abort fraction %v outside [0,1]", row.Name, row.AbortedFrac)
		}
		// The per-reason decomposition must account for every abort.
		var total int64
		for _, c := range row.Aborts {
			total += c
		}
		if aborted := row.Initiated - row.Ops; total != aborted {
			t.Fatalf("%s: per-reason aborts %d != initiated-completed %d", row.Name, total, aborted)
		}
		if total > 0 && row.Dominant == "" {
			t.Fatalf("%s: aborts happened but no dominant reason named", row.Name)
		}
		if row.CollectP95 < row.CollectP50 {
			t.Fatalf("%s: collect p95 %v below p50 %v", row.Name, row.CollectP95, row.CollectP50)
		}
		// On loopback every abort is a collect that found its partners
		// busy — the only cause that exists without a real network.
		if strings.HasPrefix(row.Name, "inproc") &&
			(row.Aborts[cluster.AbortTimeout] != 0 || row.Aborts[cluster.AbortLinkDown] != 0) {
			t.Fatalf("%s saw network-style aborts: %v", row.Name, row.Aborts)
		}
	}
	for _, want := range []string{"peer_frozen", "dominant abort cause, tcp δ=2: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
