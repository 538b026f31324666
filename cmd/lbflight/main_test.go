package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"lmbalance/internal/flight"
	"lmbalance/internal/netsim"
	"lmbalance/internal/wire"
)

// record runs a small recorded netsim world, holds the recording to its
// result through netsim.Replay and returns the recording root (node i's
// stream under node-i/).
func record(t *testing.T, n, steps int, seed uint64) string {
	t.Helper()
	root := t.TempDir()
	recs, err := netsim.Record(root, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := netsim.Run(netsim.Config{N: n, Delta: 2, F: 2, Steps: steps, Seed: seed, Flight: recs})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := netsim.Replay(res, recs); err != nil {
		t.Fatal(err)
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
	// The recording is a netsim world's, so its audit is pinned: every
	// field of the document but the temporary directory.
	doc.Dir = ""
	pinned, _ := json.Marshal(doc)
	if got := fmt.Sprintf("%x", sha256.Sum256(pinned))[:16]; got != "24977607e1ad4d2c" {
		t.Errorf("audit digest %s, want 24977607e1ad4d2c", got)
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
	var victim *flight.NodeRecording
	for i := 0; i < 3 && victim == nil; i++ {
		nr, err := flight.LoadDir(filepath.Join(root, fmt.Sprintf("node-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range nr.Events {
			if ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
				victim = nr
			}
		}
	}
	if victim == nil {
		t.Fatal("run completed no transfers to tamper with")
	}
	for i := range victim.Events {
		if ev := &victim.Events[i]; ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
			ev.Msg.Amount += 5
		}
	}
	dst := t.TempDir()
	if err := flight.WriteDir(dst, victim.Node, victim.Events); err != nil {
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
