package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"lmbalance/internal/cluster"
	"lmbalance/internal/flight"
	"lmbalance/internal/wire"
)

// record runs a small recorded loopback cluster and returns the
// recording root.
func record(t *testing.T, n, steps int, seed uint64) string {
	t.Helper()
	root := t.TempDir()
	lnet := wire.NewLoopback(n)
	recs := make([]*flight.Recorder, n)
	transports := make([]wire.Transport, n)
	for i := 0; i < n; i++ {
		rec, err := flight.Open(flight.Options{
			Dir:  filepath.Join(root, fmt.Sprintf("node-%d", i)),
			Node: i,
		})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
		transports[i] = rec.Tap(lnet.Transport(i))
	}
	if _, err := cluster.RunCluster(cluster.ClusterConfig{
		N: n, Delta: 2, F: 2, Steps: steps, Seed: seed, Flight: recs,
	}, transports); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestCLIAuditOpsTimelineDiff(t *testing.T) {
	root := record(t, 3, 200, 11)

	// Clean audit: exit 0, text mentions the verdict lines.
	var out strings.Builder
	code, err := run(&out, []string{root}, false, "", false, false)
	if err != nil || code != 0 {
		t.Fatalf("audit = code %d, err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "legality: clean") ||
		!strings.Contains(out.String(), "-> conserved") {
		t.Fatalf("audit output missing verdicts:\n%s", out.String())
	}

	// JSON audit parses and agrees.
	out.Reset()
	if code, err = run(&out, []string{root}, false, "", false, true); err != nil || code != 0 {
		t.Fatalf("json audit = code %d, err %v", code, err)
	}
	var doc auditDoc
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("audit JSON: %v\n%s", err, out.String())
	}
	if doc.Nodes != 3 || !doc.Conserved || doc.First != nil {
		t.Fatalf("audit doc = %+v", doc)
	}

	// -ops lists ids; -op renders a timeline for the first one.
	rec, err := flight.LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := rec.Timelines()
	if len(ops) == 0 {
		t.Fatal("no ops recorded")
	}
	out.Reset()
	if code, err = run(&out, []string{root}, true, "", false, false); err != nil || code != 0 {
		t.Fatalf("-ops = code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("0x%x", ops[0])) {
		t.Fatalf("-ops output missing op 0x%x:\n%s", ops[0], out.String())
	}
	out.Reset()
	if code, err = run(&out, []string{root}, false, fmt.Sprintf("0x%x", ops[0]), false, false); err != nil || code != 0 {
		t.Fatalf("-op = code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "initiate") {
		t.Fatalf("timeline missing initiate:\n%s", out.String())
	}

	// Diff against itself agrees (exit 0); against a different run it
	// disagrees (exit 2).
	out.Reset()
	if code, err = run(&out, []string{root, root}, false, "", true, false); err != nil || code != 0 {
		t.Fatalf("self diff = code %d, err %v\n%s", code, err, out.String())
	}
	other := record(t, 3, 200, 99)
	out.Reset()
	code, err = run(&out, []string{root, other}, false, "", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("diff of different runs = code %d, want 2\n%s", code, out.String())
	}
}

func TestCLIFlagsTamperedRecording(t *testing.T) {
	root := record(t, 3, 300, 7)
	victim := ""
	for i := 0; i < 3; i++ {
		dir := filepath.Join(root, fmt.Sprintf("node-%d", i))
		nr, err := flight.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range nr.Events {
			if ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
				victim = dir
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Skip("run completed no transfers to tamper with")
	}
	dst := t.TempDir()
	err := flight.Rewrite(victim, dst, func(ev flight.Event) flight.Event {
		if ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
			ev.Msg.Amount += 5
		}
		return ev
	})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run(&out, []string{dst}, false, "", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("tampered audit = code %d, want 2\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "imbalance_violation") {
		t.Fatalf("verdict missing the violated rule:\n%s", out.String())
	}

	// Usage errors surface as err, not a verdict.
	if _, err := run(&out, nil, false, "", false, false); err == nil {
		t.Fatal("no dirs accepted")
	}
	if _, err := run(&out, []string{dst}, false, "not-an-op", false, false); err == nil {
		t.Fatal("bad -op accepted")
	}
}
