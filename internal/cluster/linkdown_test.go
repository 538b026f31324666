package cluster

import (
	"testing"
	"time"

	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

// statsTransport is a controllable Transport: the test sets the
// transport-wide and per-peer send-error counters directly to drive the
// timeout-attribution logic.
type statsTransport struct {
	inbox    chan wire.Msg
	global   wire.Stats
	peerErrs map[int]int64
	sentTo   []int
	sent     []wire.Msg
}

func newStatsTransport() *statsTransport {
	return &statsTransport{
		inbox:    make(chan wire.Msg, 64),
		peerErrs: make(map[int]int64),
	}
}

func (f *statsTransport) Send(to int, m wire.Msg) error {
	f.sentTo = append(f.sentTo, to)
	f.sent = append(f.sent, m)
	return nil
}
func (f *statsTransport) Inbox() <-chan wire.Msg { return f.inbox }
func (f *statsTransport) Stats() wire.Stats      { return f.global }
func (f *statsTransport) PeerStats(id int) wire.Stats {
	return wire.Stats{SendErrors: f.peerErrs[id]}
}
func (f *statsTransport) Close() error { return nil }

// timeoutReason drives one initiate → reply-timeout cycle on a node
// wired to tr, applies mutate between the two (the window in which the
// transport may report send errors), and returns the abort counters'
// deltas by reason.
func timeoutReason(t *testing.T, tr wire.Transport, mutate func(partners []int)) map[string]int64 {
	t.Helper()
	reg := obs.NewRegistry()
	n, err := New(Config{
		ID: 0, N: 8, Delta: 2, F: 1.2, Steps: 1,
		GenP: 0.5, ConP: 0.4, Seed: 77,
		Transport: tr, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.initiate()
	if !n.m.Inflight() {
		t.Fatal("initiate did not go inflight")
	}
	mutate(append([]int(nil), n.candBuf...))
	// Age the protocol past the reply timeout and fire the check.
	n.lastInitAt = n.now - int64(time.Minute)
	n.checkTimeouts()
	if n.m.Inflight() {
		t.Fatal("timeout did not abandon the protocol")
	}
	out := make(map[string]int64, 4)
	for _, reason := range []string{AbortPeerFrozen, AbortTimeout, AbortStaleEpoch, AbortLinkDown} {
		out[reason] = reg.Counter(AbortMetric(reason)).Value()
	}
	return out
}

// TestTimeoutAttributionPartnerLink is the link_down regression test:
// only send errors on a *protocol partner's* link may turn a reply
// timeout into link_down. Errors on unrelated links — another
// protocol's release, shutdown traffic to a dead node — say nothing
// about why this protocol's replies are missing, and the old
// transport-wide check misattributed exactly that case.
func TestTimeoutAttributionPartnerLink(t *testing.T) {
	// Clean timeout: no errors anywhere.
	tr := newStatsTransport()
	got := timeoutReason(t, tr, func([]int) {})
	if got[AbortTimeout] != 1 || got[AbortLinkDown] != 0 {
		t.Fatalf("clean timeout misattributed: %v", got)
	}

	// The regression case: the transport-wide counter moves (an error on
	// some non-partner link) while every partner link is clean. This
	// must stay a plain timeout.
	tr = newStatsTransport()
	got = timeoutReason(t, tr, func(partners []int) {
		tr.global.SendErrors = 3 // non-partner trouble only
		isPartner := map[int]bool{}
		for _, p := range partners {
			isPartner[p] = true
		}
		for id := 1; id < 8; id++ {
			if !isPartner[id] {
				tr.peerErrs[id] = 3
				break
			}
		}
	})
	if got[AbortLinkDown] != 0 || got[AbortTimeout] != 1 {
		t.Fatalf("non-partner send errors misattributed as link_down: %v", got)
	}

	// A partner's link really dropped frames: link_down.
	tr = newStatsTransport()
	got = timeoutReason(t, tr, func(partners []int) {
		tr.global.SendErrors = 1
		tr.peerErrs[partners[0]] = 1
	})
	if got[AbortLinkDown] != 1 || got[AbortTimeout] != 0 {
		t.Fatalf("partner link errors not attributed as link_down: %v", got)
	}
}
