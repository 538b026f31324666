package wire

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"lmbalance/internal/obs"
)

// TestTCPConcurrentAccounting is the regression test for the
// per-endpoint accounting: many goroutines send on the same transport
// while others snapshot Stats and PeerStats — every counter mutation
// must be atomic (the race gate runs this under -race) and the totals
// must exactly equal the per-peer sums.
func TestTCPConcurrentAccounting(t *testing.T) {
	const (
		n       = 3
		senders = 4
		perSend = 200
	)
	ts, err := NewLocalCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tp := range ts {
			tp.Close()
		}
	}()

	// Drain every inbox, counting deliveries.
	var recvWg sync.WaitGroup
	recvCount := make([]int, n)
	for i, tp := range ts {
		recvWg.Add(1)
		go func(i int, tp *TCP) {
			defer recvWg.Done()
			want := (n - 1) * senders * perSend
			timeout := time.After(30 * time.Second)
			for recvCount[i] < want {
				select {
				case <-tp.Inbox():
					recvCount[i]++
				case <-timeout:
					return
				}
			}
		}(i, tp)
	}

	// Hammer Send from several goroutines per transport while other
	// goroutines concurrently read the counters.
	stop := make(chan struct{})
	var readWg sync.WaitGroup
	for _, tp := range ts {
		readWg.Add(1)
		go func(tp *TCP) {
			defer readWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = tp.Stats()
					for p := 0; p < n; p++ {
						_ = tp.PeerStats(p)
					}
				}
			}
		}(tp)
	}
	var sendWg sync.WaitGroup
	for id, tp := range ts {
		for s := 0; s < senders; s++ {
			sendWg.Add(1)
			go func(id int, tp *TCP) {
				defer sendWg.Done()
				for i := 0; i < perSend; i++ {
					for to := 0; to < n; to++ {
						if to == id {
							continue
						}
						if err := tp.Send(to, Msg{Kind: Idle, From: id}); err != nil {
							t.Errorf("send %d->%d: %v", id, to, err)
							return
						}
					}
				}
			}(id, tp)
		}
	}
	sendWg.Wait()
	recvWg.Wait()
	close(stop)
	readWg.Wait()

	for i, tp := range ts {
		want := (n - 1) * senders * perSend
		if recvCount[i] != want {
			t.Fatalf("node %d drained %d messages, want %d", i, recvCount[i], want)
		}
		st := tp.Stats()
		if st.MsgsSent != int64(want) {
			t.Fatalf("node %d sent %d, want %d", i, st.MsgsSent, want)
		}
		// Totals must equal the per-peer sums exactly.
		var peerSent, peerBytes, peerRecv, peerBytesRecv int64
		for p := 0; p < n; p++ {
			ps := tp.PeerStats(p)
			peerSent += ps.MsgsSent
			peerBytes += ps.BytesSent
			peerRecv += ps.MsgsRecv
			peerBytesRecv += ps.BytesRecv
			if p != i {
				if ps.MsgsSent != int64(senders*perSend) {
					t.Fatalf("node %d -> peer %d: %d msgs, want %d", i, p, ps.MsgsSent, senders*perSend)
				}
			}
		}
		if peerSent != st.MsgsSent || peerBytes != st.BytesSent {
			t.Fatalf("node %d per-peer sent (%d msgs, %d B) != totals (%d msgs, %d B)",
				i, peerSent, peerBytes, st.MsgsSent, st.BytesSent)
		}
		if peerRecv != st.MsgsRecv || peerBytesRecv != st.BytesRecv {
			t.Fatalf("node %d per-peer recv (%d msgs, %d B) != totals (%d msgs, %d B)",
				i, peerRecv, peerBytesRecv, st.MsgsRecv, st.BytesRecv)
		}
		if ps := tp.PeerStats(99); ps != (Stats{}) {
			t.Fatalf("unknown peer must report zero Stats, got %+v", ps)
		}
	}
}

// TestLoopbackPeerAccounting checks the same breakdown on the
// in-memory transport, plus the registry export of the wire counters.
func TestLoopbackPeerAccounting(t *testing.T) {
	net := NewLoopback(3)
	a, b, c := net.Transport(0), net.Transport(1), net.Transport(2)
	for i := 0; i < 5; i++ {
		if err := a.Send(1, Msg{Kind: Idle, From: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send(2, Msg{Kind: Idle, From: 0}); err != nil {
		t.Fatal(err)
	}
	if got := a.PeerStats(1).MsgsSent; got != 5 {
		t.Fatalf("a->b msgs = %d, want 5", got)
	}
	if got := a.PeerStats(2).MsgsSent; got != 1 {
		t.Fatalf("a->c msgs = %d, want 1", got)
	}
	if got := b.PeerStats(0).MsgsRecv; got != 5 {
		t.Fatalf("b<-a msgs = %d, want 5", got)
	}
	if got := c.PeerStats(0).MsgsRecv; got != 1 {
		t.Fatalf("c<-a msgs = %d, want 1", got)
	}
	if st := a.Stats(); st.MsgsSent != 6 {
		t.Fatalf("a total sent = %d, want 6", st.MsgsSent)
	}

	reg := obs.NewRegistry()
	a.Register(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`wire_msgs_sent_total{node="0"} 6`,
		`wire_peer_msgs_sent_total{node="0",peer="1"} 5`,
		`wire_peer_msgs_sent_total{node="0",peer="2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry exposition missing %q:\n%s", want, out)
		}
	}
	// Registered counters are live, not copies.
	if err := a.Send(2, Msg{Kind: Idle, From: 0}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `wire_msgs_sent_total{node="0"} 7`) {
		t.Fatalf("registered counter did not track live traffic:\n%s", buf.String())
	}
}

// TestTCPQueueDepthGauge checks the held-frame depth gauge
// (wire_sendq_depth) returns to zero once the dialer has written the
// frames sent while the link was still connecting.
func TestTCPQueueDepthGauge(t *testing.T) {
	ts, err := NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ts[0].Register(reg)
	depth := reg.Gauge(`wire_sendq_depth{node="0"}`)
	arrived := make(chan struct{})
	go func() {
		n := 0
		for range ts[1].Inbox() {
			if n++; n == 100 {
				close(arrived)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		if err := ts[0].Send(1, Msg{Kind: Idle, From: 0}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-arrived:
	case <-time.After(dialDeadline):
		t.Fatalf("frames never all arrived; queue depth %d", depth.Value())
	}
	awaitLinkAccounting(ts[0])
	if depth.Value() != 0 {
		t.Fatalf("queue depth %d after every frame arrived, want 0", depth.Value())
	}
	if st := ts[0].Stats(); st.MsgsSent != 100 {
		t.Fatalf("sent %d, want 100", st.MsgsSent)
	}
	for _, tp := range ts {
		tp.Close()
	}
	if depth.Value() != 0 {
		t.Fatalf("queue depth after close = %d, want 0", depth.Value())
	}
}
