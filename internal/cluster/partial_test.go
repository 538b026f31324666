package cluster

import (
	"testing"
	"time"

	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

// TestPartialCollectAndZeroDeltaDiet is the driver's half of the
// collision rule (the handshake's half is proto.TestCollectConcludes):
// an operation that loses a partner to Busy still completes and is
// accounted with the partners it got; a collect the reply timeout cuts
// short completes too and counts as a timeout, not an abort; and a
// zero-delta Transfer is neither awaited by its sender nor acknowledged
// by its receiver, while a load-moving one still is.
func TestPartialCollectAndZeroDeltaDiet(t *testing.T) {
	tr := newStatsTransport()
	reg := obs.NewRegistry()
	n, err := New(Config{ID: 0, N: 8, Delta: 2, F: 1.2, Steps: 1, Seed: 77, Transport: tr, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	lastSent := func() (int, wire.Msg) { return tr.sentTo[len(tr.sentTo)-1], tr.sent[len(tr.sent)-1] }

	// One ack with our own load, one busy: the operation completes over
	// the acker alone, and its transfer moves nothing.
	n.m.Add(4)
	n.initiate()
	a, b := n.candBuf[0], n.candBuf[1]
	n.handle(wire.Msg{Kind: wire.FreezeAck, From: a, Seq: n.m.Seq(), Load: 4})
	n.handle(wire.Msg{Kind: wire.FreezeBusy, From: b, Seq: n.m.Seq()})
	if n.m.Inflight() || n.stats.Completed != 1 || n.stats.Partners != 1 || n.stats.Aborted != 0 {
		t.Fatalf("ack+busy collect: inflight=%v stats %+v", n.m.Inflight(), n.stats)
	}
	if to, m := lastSent(); to != a || m.Kind != wire.Transfer || m.Amount != 0 {
		t.Fatalf("last frame %+v to %d, want the acker's zero-delta transfer", m, to)
	}
	if n.unacked != 0 || len(n.xferSent) != 0 {
		t.Fatalf("zero-delta transfer awaited: unacked=%d xferSent=%d", n.unacked, len(n.xferSent))
	}

	// One ack, one partner silent past the reply timeout: the collect ends
	// on the clock, the operation still completes, and its load-moving
	// transfer is awaited until acknowledged.
	n.initiate()
	a = n.candBuf[0]
	n.handle(wire.Msg{Kind: wire.FreezeAck, From: a, Seq: n.m.Seq(), Load: 10})
	n.lastInitAt = n.now - int64(time.Minute)
	n.checkTimeouts()
	if n.m.Inflight() || n.stats.Completed != 2 || n.stats.Partners != 2 || n.stats.Aborted != 0 || n.stats.Timeouts != 1 {
		t.Fatalf("ack+silence collect: inflight=%v stats %+v", n.m.Inflight(), n.stats)
	}
	if n.Epoch() != n.m.Seq() {
		t.Fatalf("published epoch %d lags the machine's %d after a timeout", n.Epoch(), n.m.Seq())
	}
	if to, m := lastSent(); to != a || m.Kind != wire.Transfer || m.Amount != -3 || n.m.Load() != 7 || n.unacked != 1 {
		t.Fatalf("last frame %+v to %d, load %d, unacked %d; want transfer −3, load 7, one awaited", m, to, n.m.Load(), n.unacked)
	}
	n.handle(wire.Msg{Kind: wire.TransferAck, From: a})
	if n.unacked != 0 {
		t.Fatalf("unacked = %d after the ack", n.unacked)
	}
	if got := reg.Counter("cluster_op_partners_total").Value(); got != 2 {
		t.Fatalf("cluster_op_partners_total = %d, want 2", got)
	}
	for _, reason := range []string{AbortPeerFrozen, AbortTimeout, AbortStaleEpoch, AbortLinkDown} {
		if got := reg.Counter(AbortMetric(reason)).Value(); got != 0 {
			t.Fatalf("abort counter %s = %d, want 0", reason, got)
		}
	}

	// Partner side: a zero-delta transfer ends the freeze and draws no
	// TransferAck; one that moves load is acknowledged.
	for _, amount := range []int{0, 2} {
		n.handle(wire.Msg{Kind: wire.FreezeReq, From: 3, Seq: 5, Op: 0xa})
		if _, m := lastSent(); !n.m.Frozen() || m.Kind != wire.FreezeAck {
			t.Fatalf("freeze not taken and acked: %+v", m)
		}
		frames := len(tr.sent)
		n.handle(wire.Msg{Kind: wire.Transfer, From: 3, Seq: 5, Op: 0xa, Amount: amount})
		if n.m.Frozen() {
			t.Fatalf("transfer of %d did not end the freeze", amount)
		}
		switch acks := tr.sent[frames:]; {
		case amount == 0 && len(acks) != 0:
			t.Fatalf("zero-delta transfer answered with %+v", acks)
		case amount != 0 && (len(acks) != 1 || acks[0].Kind != wire.TransferAck || acks[0].Seq != 5):
			t.Fatalf("load-moving transfer answered with %+v, want one TransferAck", acks)
		}
	}
}
