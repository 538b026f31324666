package flight_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"

	"lmbalance/internal/flight"
	"lmbalance/internal/netsim"
	"lmbalance/internal/wire"
)

// recordRun runs a netsim world with a flight recorder on every node and
// returns the recording's root (node i's stream under node-i/) and the
// world's result. The run must conserve and the recorders must not have
// dropped a record: a world writes every record on the recording call,
// so the recording is a pure function of cfg.
func recordRun(t *testing.T, cfg netsim.Config) (string, *netsim.Result) {
	t.Helper()
	root := t.TempDir()
	cfg.Flight = make([]*flight.Recorder, cfg.N)
	for i := range cfg.Flight {
		rec, err := flight.Open(flight.Options{
			Dir:  filepath.Join(root, fmt.Sprintf("node-%d", i)),
			Node: i,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Flight[i] = rec
	}
	res, err := netsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatal("live run itself failed conservation")
	}
	for _, rec := range cfg.Flight {
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("recorder dropped %d records; identity needs a complete stream", rec.Dropped())
		}
	}
	return root, res
}

// auditDigest hashes what an audit re-derived — every node's counts and
// final accounting, the totals, the VD trajectory, the sojourns and the
// violations — so a pinned digest fails on any change to a recording's
// replayed meaning.
func auditDigest(a *flight.AuditResult) string {
	h := sha256.New()
	for _, na := range a.Nodes {
		fmt.Fprintln(h, na.Node, na.Events, na.MsgsSent, na.MsgsRecv, na.Initiated, na.Resolved,
			na.Aborted, na.FreezeExpired, na.Completes, na.Drops, na.Unverified, *na.Final)
	}
	fmt.Fprintln(h, a.FinalsSeen, a.TotalLoad, a.Generated, a.Consumed, a.VD, a.SojournNS, a.Violations)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// handshakeSent counts a stream's sent handshake frames — what a netsim
// port counts as its MsgsSent.
func handshakeSent(nr *flight.NodeRecording) (n int64) {
	for _, ev := range nr.Events {
		switch ev.Msg.Kind {
		case wire.FreezeReq, wire.FreezeAck, wire.FreezeBusy, wire.Release, wire.Transfer:
			if ev.Dir == flight.DirSend {
				n++
			}
		}
	}
	return n
}

// TestReplayReproducesLiveRun is the acceptance check for the flight
// recorder: record a whole netsim run through the ports and the node's
// own records, then re-execute the recording offline and require the
// audit to reproduce the live run's accounting bit for bit —
// conservation, per-node protocol counts, final loads — with every record
// judged and zero divergences. (cmd/lbnode's TestSpawnFlightRecording
// and cluster's TestTCPAggregatorEndToEnd audit recordings taken over
// real TCP.)
func TestReplayReproducesLiveRun(t *testing.T) {
	const n = 4
	root, res := recordRun(t, netsim.Config{N: n, Delta: 2, F: 2, Steps: 400, Seed: 42})

	recording, err := flight.LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(recording.Nodes) != n {
		t.Fatalf("loaded %d node streams, want %d", len(recording.Nodes), n)
	}
	audit := flight.Audit(recording)

	if audit.First != nil {
		t.Fatalf("clean run flagged: %v (of %d violations)", *audit.First, len(audit.Violations))
	}
	if audit.FinalsSeen != n {
		t.Fatalf("finals from %d of %d nodes", audit.FinalsSeen, n)
	}

	// Bit-identity against the live result, per node and cluster-wide.
	var sent, recv int64
	for i, na := range audit.Nodes {
		live := res.Nodes[i]
		if na.Node != i {
			t.Fatalf("node stream %d claims id %d", i, na.Node)
		}
		if na.Initiated != live.Initiated {
			t.Errorf("node %d initiated: replay %d live %d", i, na.Initiated, live.Initiated)
		}
		if na.Resolved != live.Completed {
			t.Errorf("node %d completed: replay %d live %d", i, na.Resolved, live.Completed)
		}
		if na.Aborted != live.Aborted {
			t.Errorf("node %d aborted: replay %d live %d", i, na.Aborted, live.Aborted)
		}
		if na.FreezeExpired != live.FreezeExpired {
			t.Errorf("node %d freeze expiries: replay %d live %d", i, na.FreezeExpired, live.FreezeExpired)
		}
		if na.Final == nil || na.Final.Load != live.FinalLoad {
			t.Errorf("node %d final load: replay %+v live %d", i, na.Final, live.FinalLoad)
		}
		if na.Final.Generated != live.Generated || na.Final.Consumed != live.Consumed {
			t.Errorf("node %d gen/con: replay %d/%d live %d/%d",
				i, na.Final.Generated, na.Final.Consumed, live.Generated, live.Consumed)
		}
		if hs := handshakeSent(recording.Nodes[i]); hs != live.MsgsSent {
			t.Errorf("node %d handshake frames sent: replay %d live %d", i, hs, live.MsgsSent)
		}
		sent += na.MsgsSent
		recv += na.MsgsRecv
		// A whole recording starts with the node unengaged: replay judges
		// every record of it.
		if na.Unverified != 0 {
			t.Errorf("node %d: %d records unverified in a whole recording", i, na.Unverified)
		}
	}
	// A world without faults delivers every frame, and the node records
	// each where it processes it.
	if recv != sent {
		t.Errorf("%d frames recorded received, %d sent", recv, sent)
	}
	if audit.TotalLoad != res.TotalLoad() {
		t.Errorf("total load: replay %d live %d", audit.TotalLoad, res.TotalLoad())
	}
	if audit.Conserved() != res.Conserved() {
		t.Errorf("conservation verdicts disagree: replay %v live %v", audit.Conserved(), res.Conserved())
	}

	// Per-op timelines reconstruct offline: every resolved op's timeline
	// holds its initiate, the freeze round trip, and its transfers.
	ops, timelines := recording.Timelines()
	if len(ops) == 0 {
		t.Fatal("no ops in recording")
	}
	checked := 0
	for _, op := range ops {
		tl := timelines[op]
		var hasInit, hasResolve bool
		for _, ev := range tl {
			if ev.Dir == flight.DirLocal && ev.Kind == flight.LocalInitiate {
				hasInit = true
			}
			if ev.Dir == flight.DirLocal && ev.Kind == flight.LocalResolve {
				hasResolve = true
			}
		}
		if !hasInit {
			t.Fatalf("op %d timeline has no initiate (%d events)", op, len(tl))
		}
		if hasResolve {
			checked++
		}
	}
	if int64(checked) != res.Completed() {
		t.Errorf("timelines with a resolve: %d, live completed ops: %d", checked, res.Completed())
	}

	// The VD trajectory re-derives offline.
	if len(audit.VD) == 0 {
		t.Error("no VD trajectory from a full recording")
	}
	if got := auditDigest(audit); got != "50bc536400274cc0" {
		t.Errorf("audit digest %s, want 50bc536400274cc0", got)
	}
}

// TestReplayFlagsDoubleBalance tamper-checks the end-to-end pipeline
// from a real recording: rewriting one node's history so a transfer is
// duplicated must produce a verdict naming that exact record.
func TestReplayFlagsDoubleBalance(t *testing.T) {
	const n = 3
	root, _ := recordRun(t, netsim.Config{N: n, Delta: 1, F: 1.5, Steps: 300, Seed: 7})

	// Find a node whose stream has a transfer to tamper with.
	victim := -1
	for i := 0; i < n; i++ {
		nr, err := flight.LoadDir(filepath.Join(root, fmt.Sprintf("node-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range nr.Events {
			if ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
				victim = i
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("run completed no transfers to tamper with")
	}
	dst := t.TempDir()
	err := flight.Rewrite(filepath.Join(root, fmt.Sprintf("node-%d", victim)), dst,
		func(ev flight.Event) flight.Event {
			if ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
				ev.Msg.Amount += 5 // steal five packets in transit
			}
			return ev
		})
	if err != nil {
		t.Fatal(err)
	}
	nr, err := flight.LoadDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	verdict := flight.Audit(&flight.Recording{Nodes: []*flight.NodeRecording{nr}})
	if verdict.First == nil {
		t.Fatal("tampered history passed the audit")
	}
	if verdict.First.Rule != "imbalance_violation" {
		t.Fatalf("flagged %q, want imbalance_violation", verdict.First.Rule)
	}
	if got := auditDigest(verdict); got != "2cd4025f8a000d2d" {
		t.Errorf("audit digest %s, want 2cd4025f8a000d2d", got)
	}
}

// TestReplayPartialOperations records a colliding run under the rule
// that a busy partner drops out of an operation instead of aborting it,
// so the recording holds operations over fewer partners than were asked
// and zero-delta transfers nobody acknowledges. The audit must pass it
// clean; re-addressing one such operation's transfer to the partner
// that answered Busy must be flagged at that exact record.
func TestReplayPartialOperations(t *testing.T) {
	const n, delta = 6, 2
	root, res := recordRun(t, netsim.Config{
		N: n, Delta: delta, F: 1.2, Steps: 600, Seed: 11,
		GenP: []float64{0.9, 0.9, 0.1, 0.1, 0.1, 0.1},
		ConP: []float64{0.1, 0.1, 0.4, 0.4, 0.4, 0.4},
	})
	recording, err := flight.LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	audit := flight.Audit(recording)
	if audit.First != nil {
		t.Fatalf("clean run flagged: %v (of %d violations)", *audit.First, len(audit.Violations))
	}
	if got := auditDigest(audit); got != "5e06a8125d0e112e" {
		t.Errorf("audit digest %s, want 5e06a8125d0e112e", got)
	}

	// What the recording holds, and the one record to doctor: the transfer
	// of an operation that resolved after one of its partners said Busy.
	type key struct {
		node int
		op   uint64
	}
	busyFrom := map[key]int{}
	partial := map[key]bool{}
	var partials, zeroXfers, movingXfers, xferAcks, partners int64
	victim, victimSeq, victimBusy := -1, -1, -1
	for _, nr := range recording.Nodes {
		for _, ev := range nr.Events {
			k := key{nr.Node, ev.Msg.Op}
			switch {
			case ev.Dir == flight.DirRecv && ev.Msg.Kind == wire.FreezeBusy:
				busyFrom[k] = ev.Msg.From
			case ev.Dir == flight.DirLocal && ev.Kind == flight.LocalResolve:
				partners += ev.Arg(2)
				if ev.Arg(2) < delta {
					partials++
					partial[key{nr.Node, ev.Op}] = true
				}
			case ev.Dir == flight.DirSend && ev.Msg.Kind == wire.TransferAck:
				xferAcks++
			case ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer:
				if ev.Msg.Amount == 0 {
					zeroXfers++
				} else {
					movingXfers++
				}
				if q, ok := busyFrom[k]; ok && partial[k] && victim < 0 {
					victim, victimSeq, victimBusy = nr.Node, ev.Seq, q
				}
			}
		}
	}
	if partials == 0 || zeroXfers == 0 || victim < 0 {
		t.Fatalf("recording holds %d partial operations, %d zero-delta transfers, victim %d: nothing to audit", partials, zeroXfers, victim)
	}
	if partners != res.Partners() {
		t.Errorf("partners over resolves: replay %d live %d", partners, res.Partners())
	}
	// A node goes idle only once its load-moving transfers are acked, so
	// by the end every one of them — and no zero-delta one — was.
	if xferAcks != movingXfers {
		t.Errorf("%d transfer acks for %d load-moving transfers (%d zero-delta)", xferAcks, movingXfers, zeroXfers)
	}

	dst := t.TempDir()
	err = flight.Rewrite(filepath.Join(root, fmt.Sprintf("node-%d", victim)), dst,
		func(ev flight.Event) flight.Event {
			if ev.Seq == victimSeq {
				ev.Peer = victimBusy
			}
			return ev
		})
	if err != nil {
		t.Fatal(err)
	}
	nr, err := flight.LoadDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	verdict := flight.Audit(&flight.Recording{Nodes: []*flight.NodeRecording{nr}})
	if verdict.First == nil || verdict.First.Rule != "transfer_to_unacked" || verdict.First.Index != victimSeq {
		t.Fatalf("transfer re-addressed to the busy partner at record %d: verdict %+v", victimSeq, verdict.First)
	}
}
