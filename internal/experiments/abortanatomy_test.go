package experiments

import (
	"bytes"
	"strings"
	"testing"

	"lmbalance/internal/cluster"
)

func TestAbortAnatomyQuickShape(t *testing.T) {
	res, err := AbortAnatomy(ScaleQuick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows (inproc, tcp), got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Initiated == 0 {
			t.Fatalf("%s: no protocol ever initiated", row.Transport)
		}
		if row.AbortFrac < 0 || row.AbortFrac > 1 {
			t.Fatalf("%s: abort fraction %v outside [0,1]", row.Transport, row.AbortFrac)
		}
		// The per-reason decomposition must account for every abort.
		var total int64
		for _, c := range row.Aborts {
			total += c
		}
		if aborted := row.Initiated - row.Completed; total != aborted {
			t.Fatalf("%s: per-reason aborts %d != initiated-completed %d",
				row.Transport, total, aborted)
		}
		if total > 0 && row.Dominant == "" {
			t.Fatalf("%s: aborts happened but no dominant reason named", row.Transport)
		}
		if row.CollectP95 < row.CollectP50 {
			t.Fatalf("%s: collect p95 %v below p50 %v", row.Transport, row.CollectP95, row.CollectP50)
		}
	}
	// On loopback every abort is a collect that found its partners busy —
	// the only cause that exists without a real network.
	in := res.Rows[0]
	if in.Transport != "inproc" {
		t.Fatalf("row order changed: %v", in.Transport)
	}
	if in.Aborts[cluster.AbortTimeout] != 0 || in.Aborts[cluster.AbortLinkDown] != 0 {
		t.Fatalf("inproc saw network-style aborts: %v", in.Aborts)
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Abort anatomy", "peer_frozen", "dominant abort cause at n=16 over tcp",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}
