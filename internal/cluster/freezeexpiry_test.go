package cluster

import (
	"testing"
	"time"

	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

// TestFreezeExpiryOnWallClock is the driver's half of the freeze-expiry
// story (the handshake's half — which late frames may end which freeze —
// is proto.TestFreezeIdentity): the node fires the machine's
// self-release once FreezeTimeout has passed on its own clock, counts it
// in Stats and the registry, and still acknowledges the expired
// protocol's late Transfer so the old initiator can go quiet.
func TestFreezeExpiryOnWallClock(t *testing.T) {
	tr := newStatsTransport()
	reg := obs.NewRegistry()
	n, err := New(Config{
		ID: 0, N: 8, Delta: 2, F: 1.2, Steps: 1, Seed: 9,
		FreezeTimeout: time.Millisecond,
		Transport:     tr, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Node 1 freezes us (seq 5); a check inside the window changes nothing.
	n.handle(wire.Msg{Kind: wire.FreezeReq, From: 1, Seq: 5, Op: 0xa})
	if len(tr.sent) != 1 || tr.sent[0].Kind != wire.FreezeAck {
		t.Fatalf("freeze not acked: %+v", tr.sent)
	}
	n.frozeAt = n.now + int64(time.Minute)
	n.checkTimeouts()
	if !n.m.Frozen() || n.stats.FreezeExpired != 0 {
		t.Fatal("freeze expired before FreezeTimeout")
	}

	// Node 1's release never comes; the freeze expires on our own clock.
	n.frozeAt = n.now - int64(time.Minute)
	n.checkTimeouts()
	if n.m.Frozen() {
		t.Fatal("freeze did not expire at FreezeTimeout")
	}
	if n.stats.FreezeExpired != 1 {
		t.Fatalf("FreezeExpired = %d, want 1", n.stats.FreezeExpired)
	}
	if got := reg.Counter("cluster_freeze_expired_total").Value(); got != 1 {
		t.Fatalf("freeze-expired metric = %d, want 1", got)
	}

	// Node 2 re-freezes us; node 1's late Transfer applies and is acked
	// with its own epoch, without ending node 2's freeze.
	n.handle(wire.Msg{Kind: wire.FreezeReq, From: 2, Seq: 9, Op: 0xb})
	n.handle(wire.Msg{Kind: wire.Transfer, From: 1, Seq: 5, Op: 0xa, Amount: 7})
	if n.m.Load() != 7 {
		t.Fatalf("stale transfer delta lost: load %d, want 7", n.m.Load())
	}
	last := tr.sent[len(tr.sent)-1]
	if last.Kind != wire.TransferAck || last.Seq != 5 || tr.sentTo[len(tr.sentTo)-1] != 1 {
		t.Fatalf("stale transfer not acked: %+v", last)
	}
	if !n.m.Frozen() {
		t.Fatal("stale transfer terminated the new protocol's freeze")
	}
}

// dropUnfreezers wraps a Transport and swallows every outbound frame
// that ends a freeze without moving load — each Release and each
// zero-delta Transfer: a frozen partner that is owed no load is never let
// go by its initiator and can only escape through the FreezeTimeout
// self-release. (Releases alone are too rare to count on: an initiator
// sends one only when nobody it can balance with acked.) Neither frame
// carries load, so conservation must survive losing all of them.
type dropUnfreezers struct {
	wire.Transport
}

func (d dropUnfreezers) Send(to int, m wire.Msg) error {
	if m.Kind == wire.Release || (m.Kind == wire.Transfer && m.Amount == 0) {
		return nil
	}
	return d.Transport.Send(to, m)
}

// TestFreezeExpiryLive runs a colliding loopback cluster in which every
// Release and every zero-delta Transfer is lost, so each freeze that
// does not end in a load-moving transfer sits until the FreezeTimeout
// self-release — the expiry path exercised end to end, with
// late-message races left to wall-clock chance. The invariant under all
// that churn is exact conservation.
func TestFreezeExpiryLive(t *testing.T) {
	n := 8
	ts := loopTransports(n)
	for i := range ts {
		ts[i] = dropUnfreezers{ts[i]}
	}
	res, err := RunCluster(ClusterConfig{N: n, Delta: 2, F: 1.1, Steps: 1500, Seed: 23,
		FreezeTimeout: 2 * time.Millisecond,
		GenP:          []float64{0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		ConP:          []float64{0.1, 0.1, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4}}, ts)
	if err != nil {
		t.Fatal(err)
	}
	var expired int64
	for _, nd := range res.Nodes {
		expired += nd.FreezeExpired
	}
	if expired == 0 {
		t.Fatal("no freeze ever expired with every Release and zero-delta Transfer dropped")
	}
	if !res.Conserved() || !res.Summary.Conserved() {
		t.Fatalf("conservation violated under freeze-expiry churn: total %d", res.TotalLoad())
	}
}
