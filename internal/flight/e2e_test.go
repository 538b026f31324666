package flight_test

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lmbalance/internal/cluster"
	"lmbalance/internal/flight"
	"lmbalance/internal/netsim"
	"lmbalance/internal/wire"
)

// recordRun runs a netsim world with a flight recorder in memory on
// every node and holds the recording to the world's result through
// netsim.Replay. It returns the result, the recording and its audit.
func recordRun(t *testing.T, cfg netsim.Config) (*netsim.Result, *flight.Recording, *flight.AuditResult) {
	t.Helper()
	var err error
	if cfg.Flight, err = netsim.Record("", cfg.N); err != nil {
		t.Fatal(err)
	}
	res, err := netsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatal("live run itself failed conservation")
	}
	recording, audit, err := netsim.Replay(res, cfg.Flight)
	if err != nil {
		t.Fatal(err)
	}
	return res, recording, audit
}

// auditDigest hashes what an audit re-derived — every node's counts and
// final accounting, the totals, the VD trajectory, the sojourns and the
// violations — so a pinned digest fails on any change to a recording's
// replayed meaning.
func auditDigest(a *flight.AuditResult) string {
	h := sha256.New()
	for _, na := range a.Nodes {
		fmt.Fprintln(h, na.Node, na.Events, na.MsgsSent, na.MsgsRecv, na.Initiated, na.Resolved,
			na.Aborted, na.FreezeExpired, na.Completes, na.Unverified, *na.Final)
	}
	fmt.Fprintln(h, a.FinalsSeen, a.TotalLoad, a.Generated, a.Consumed, a.VD, a.SojournNS, a.Violations)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestReplayReproducesLiveRun is the acceptance check for the flight
// recorder: record a whole netsim run through the ports and the node's
// own records, and netsim.Replay re-executes the recording offline and
// holds it to the live run's accounting bit for bit (recordRun). On top
// of that, every frame sent is recorded received, every operation's
// timeline reconstructs, and the audit's digest is pinned.
// (cmd/lbnode's TestSpawnFlightRecording and cluster's
// TestTCPAggregatorEndToEnd audit recordings taken over real TCP.)
func TestReplayReproducesLiveRun(t *testing.T) {
	res, recording, audit := recordRun(t, netsim.Config{N: 4, Delta: 2, F: 2, Steps: 400, Seed: 42})

	// A world without faults delivers every frame, and the node records
	// each where it processes it.
	var sent, recv int64
	for _, na := range audit.Nodes {
		sent += na.MsgsSent
		recv += na.MsgsRecv
	}
	if recv != sent {
		t.Errorf("%d frames recorded received, %d sent", recv, sent)
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

	if got := auditDigest(audit); got != "5cea44777354736c" {
		t.Errorf("audit digest %s, want 5cea44777354736c", got)
	}
}

// TestReplayFlagsDoubleBalance tamper-checks the end-to-end pipeline
// from a real recording: rewriting one node's history so a transfer is
// duplicated must produce a verdict naming that exact record.
func TestReplayFlagsDoubleBalance(t *testing.T) {
	_, recording, _ := recordRun(t, netsim.Config{N: 3, Delta: 1, F: 1.5, Steps: 300, Seed: 7})

	// Find a node whose stream has a transfer to tamper with.
	var victim *flight.NodeRecording
	for _, nr := range recording.Nodes {
		for _, ev := range nr.Events {
			if ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
				victim = nr
			}
		}
		if victim != nil {
			break
		}
	}
	if victim == nil {
		t.Fatal("run completed no transfers to tamper with")
	}
	events := slices.Clone(victim.Events)
	for i := range events {
		if ev := &events[i]; ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
			ev.Msg.Amount += 5 // steal five packets in transit
		}
	}
	verdict := flight.Audit(&flight.Recording{Nodes: []*flight.NodeRecording{{Node: victim.Node, Events: events}}})
	if verdict.First == nil {
		t.Fatal("tampered history passed the audit")
	}
	if verdict.First.Rule != "imbalance_violation" {
		t.Fatalf("flagged %q, want imbalance_violation", verdict.First.Rule)
	}
	if got := auditDigest(verdict); got != "8b853ca39123d631" {
		t.Errorf("audit digest %s, want 8b853ca39123d631", got)
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
	res, recording, audit := recordRun(t, netsim.Config{
		N: n, Delta: delta, F: 1.2, Steps: 600, Seed: 11,
		GenP: []float64{0.9, 0.9, 0.1, 0.1, 0.1, 0.1},
		ConP: []float64{0.1, 0.1, 0.4, 0.4, 0.4, 0.4},
	})
	if got := auditDigest(audit); got != "5bd68ce30afac9d8" {
		t.Errorf("audit digest %s, want 5bd68ce30afac9d8", got)
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

	events := slices.Clone(recording.Nodes[victim].Events)
	events[victimSeq].Peer = victimBusy
	verdict := flight.Audit(&flight.Recording{Nodes: []*flight.NodeRecording{{Node: victim, Events: events}}})
	if verdict.First == nil || verdict.First.Rule != "transfer_to_unacked" || verdict.First.Index != victimSeq {
		t.Fatalf("transfer re-addressed to the busy partner at record %d: verdict %+v", victimSeq, verdict.First)
	}
}

// TestMemoryRecordingMatchesDisk records each world twice through
// netsim.Record, in memory and under a directory, and requires the two
// media to hold the same segments byte for byte and to load the same
// recording, while the last segment is open and once Replay has sealed
// it. One world is armed with crashes, delay and loss; one serves jobs.
// (TestRecorderRotationAndRingTrim compares the media across rotation.)
func TestMemoryRecordingMatchesDisk(t *testing.T) {
	armed := netsim.Config{N: 6, Delta: 2, F: 1.3, Steps: 2400, Seed: 5,
		GenP: []float64{0.9, 0.9, 0.1, 0.1, 0.1, 0.1}, ConP: []float64{0.4},
		Faults: netsim.Faults{DropP: 0.2, DelayMax: 3, TimeoutTicks: 25, Seed: 8,
			Crashes: []netsim.Crash{{Node: 1, AtStep: 800}, {Node: 4, AtStep: 1600, DownTicks: 50}}}}
	hooks := &cluster.ServeHooks{}
	serving := netsim.Config{N: 4, Delta: 2, F: 1.2, Steps: 2400, Seed: 6, GenP: []float64{0}, ConP: []float64{0.5},
		ServePerNode: []*cluster.ServeHooks{hooks, hooks, hooks, hooks}}
	for _, cfg := range []netsim.Config{armed, serving} {
		var res *netsim.Result
		var media [2][]*flight.Recorder
		for k, root := range []string{"", t.TempDir()} {
			var err error
			if cfg.Flight, err = netsim.Record(root, cfg.N); err != nil {
				t.Fatal(err)
			}
			w, err := netsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for tick := int64(1); !w.Done(); tick++ {
				if cfg.ServePerNode != nil && tick <= int64(cfg.Steps/2) && tick%3 == 0 {
					w.Nodes()[tick%int64(cfg.N)].Ingest(tick, cluster.Submit{ID: uint64(tick), Units: 2})
				}
				if err := w.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			res, media[k] = w.Result(), cfg.Flight
		}
		if _, err := media[0][0].Snapshot("incident"); err == nil {
			t.Fatal("a recorder in memory took a snapshot")
		}
		for _, stage := range []string{"open", "sealed"} {
			for i := range media[0] {
				mem, disk := media[0][i], media[1][i]
				mb, err1 := flight.SegmentBytes(mem)
				db, err2 := flight.SegmentBytes(disk)
				ml, err3 := mem.Load()
				dl, err4 := disk.Load()
				if err := cmp.Or(err1, err2, err3, err4); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mb, db) || !reflect.DeepEqual(ml, dl) {
					t.Fatalf("%s: node %d: memory and disk hold different recordings", stage, i)
				}
			}
			for _, recs := range media {
				if _, _, err := netsim.Replay(res, recs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
