package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"lmbalance/internal/cluster"
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
	if got := fmt.Sprintf("%x", sha256.Sum256(pinned))[:16]; got != "ed811d27e67ba2d2" {
		t.Errorf("audit digest %s, want ed811d27e67ba2d2", got)
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

// TestRetiredPaceBackoffRecord writes the record a node running the
// deleted adaptive pacer left after a peer_frozen abort, with the
// recorder's own encoder and where that node wrote it: between the
// abort and the Release the abort still owes. The audit skips it and
// stays clean and in sync, and the timeline renders it by name.
func TestRetiredPaceBackoffRecord(t *testing.T) {
	root := t.TempDir()
	rec, err := flight.Open(flight.Options{Dir: filepath.Join(root, "node-0"), Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	// f = 2.5 needs two ackers; one acks and one is busy, so the
	// operation aborts and releases the acker.
	rec.Initiate(1, 7, 1, 4, 2, 2.5)
	rec.RecordSend(1, 1, wire.Msg{Kind: wire.FreezeReq, From: 0, Seq: 1, Op: 7})
	rec.RecordSend(1, 2, wire.Msg{Kind: wire.FreezeReq, From: 0, Seq: 1, Op: 7})
	rec.RecordRecv(2, wire.Msg{Kind: wire.FreezeAck, From: 1, Seq: 1, Op: 7, Load: 0})
	rec.RecordRecv(2, wire.Msg{Kind: wire.FreezeBusy, From: 2, Seq: 1, Op: 7})
	rec.Abort(2, 7, 1, 4, cluster.AbortPeerFrozen)
	rec.Local(2, flight.LocalPaceBackoff, 0, 1500) // gap µs
	rec.RecordSend(2, 1, wire.Msg{Kind: wire.Release, From: 0, Seq: 1, Op: 7})
	rec.Initiate(3, 8, 2, 4, 1, 1.2)
	rec.RecordSend(3, 1, wire.Msg{Kind: wire.FreezeReq, From: 0, Seq: 2, Op: 8})
	rec.RecordRecv(4, wire.Msg{Kind: wire.FreezeAck, From: 1, Seq: 2, Op: 8, Load: 0})
	rec.Resolve(4, 8, 2, 2, 1, false)
	rec.RecordSend(4, 1, wire.Msg{Kind: wire.Transfer, From: 0, Seq: 2, Op: 8, Amount: 2})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := flight.LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	audit := flight.Audit(loaded)
	if len(audit.Violations) != 0 {
		t.Fatalf("recording with a pace_backoff record flagged: %v", audit.Violations)
	}
	if a := audit.Nodes[0]; a.Aborted != 1 || a.Resolved != 1 || a.Unverified != 0 {
		t.Fatalf("replayed %d aborted, %d resolved, %d unverified; want 1, 1, 0",
			a.Aborted, a.Resolved, a.Unverified)
	}
	var out strings.Builder
	if code, err := run(&out, []string{root}, false, "", false, false); err != nil || code != 0 {
		t.Fatalf("audit = code %d, err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "legality: clean") {
		t.Fatalf("audit output not clean:\n%s", out.String())
	}
	var backoff *flight.Event
	for i, ev := range loaded.Nodes[0].Events {
		if ev.Dir == flight.DirLocal && ev.Kind == flight.LocalPaceBackoff {
			backoff = &loaded.Nodes[0].Events[i]
		}
	}
	if backoff == nil {
		t.Fatal("pace_backoff record did not decode")
	}
	if line := formatEvent(*backoff, 0); !strings.Contains(line, "local pace_backoff") || !strings.Contains(line, "args=[1500]") {
		t.Fatalf("timeline line %q does not name the record", line)
	}
}
