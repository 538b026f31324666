package wire

import (
	"fmt"
	"sync"

	"lmbalance/internal/obs"
)

// LoopbackNet is the in-memory Transport fabric: n endpoints connected
// by buffered channels inside one process. Every message still round-
// trips through the codec (encode, then decode what was encoded), so
// loopback runs exercise exactly the bytes TCP would carry and the byte
// counters report the same payload volume — only the frame prefix and
// the kernel are missing.
type LoopbackNet struct {
	eps []*LoopEndpoint
}

// NewLoopback builds an n-endpoint in-memory network.
func NewLoopback(n int) *LoopbackNet {
	net := &LoopbackNet{eps: make([]*LoopEndpoint, n)}
	for i := range net.eps {
		net.eps[i] = &LoopEndpoint{
			id:  i,
			net: net,
			// A node can be targeted by every peer's protocol traffic at
			// once; size like netsim's inboxes so senders rarely block.
			inbox: make(chan Msg, 4*n+16),
			done:  make(chan struct{}),
		}
		ids := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				ids = append(ids, j)
			}
		}
		net.eps[i].ctr.initPeers(ids)
	}
	return net
}

// Transport returns endpoint i. Each endpoint is owned by one node.
func (l *LoopbackNet) Transport(i int) *LoopEndpoint { return l.eps[i] }

// N returns the endpoint count.
func (l *LoopbackNet) N() int { return len(l.eps) }

// LoopEndpoint is one node's port on a LoopbackNet.
type LoopEndpoint struct {
	id    int
	net   *LoopbackNet
	inbox chan Msg
	done  chan struct{}
	once  sync.Once

	mu  sync.Mutex // guards enc: Send may be called by tests concurrently
	enc []byte

	ctr counters
}

// Send codec-round-trips m and delivers it to peer `to`'s inbox. A send
// to a closed endpoint is silently dropped (the peer is gone), matching
// TCP semantics; a send from a closed endpoint errors.
func (e *LoopEndpoint) Send(to int, m Msg) error {
	if to < 0 || to >= len(e.net.eps) {
		return fmt.Errorf("wire: loopback send to unknown node %d", to)
	}
	select {
	case <-e.done:
		return fmt.Errorf("wire: loopback endpoint %d closed", e.id)
	default:
	}
	e.mu.Lock()
	e.enc = AppendMsg(e.enc[:0], m)
	dm, err := DecodeMsg(e.enc)
	n := int64(len(e.enc))
	e.mu.Unlock()
	if err != nil {
		// Unreachable unless the codec itself is broken; surfacing it
		// beats silently diverging from what TCP would deliver.
		return fmt.Errorf("wire: loopback codec round-trip: %w", err)
	}
	e.ctr.countSend(to, 1, n)
	peer := e.net.eps[to]
	select {
	case <-peer.done:
		// Peer already closed: drop, like a datagram to a dead host.
		e.ctr.countSendError(to, 1)
		return nil
	default:
	}
	select {
	case peer.inbox <- dm:
		peer.ctr.countRecv(e.id, n)
	case <-peer.done:
		e.ctr.countSendError(to, 1)
	}
	return nil
}

// Inbox is the stream of messages addressed to this endpoint.
func (e *LoopEndpoint) Inbox() <-chan Msg { return e.inbox }

// Stats snapshots the endpoint's counters.
func (e *LoopEndpoint) Stats() Stats { return e.ctr.snapshot() }

// PeerStats snapshots the traffic exchanged with one peer.
func (e *LoopEndpoint) PeerStats(id int) Stats { return e.ctr.peerStats(id) }

// Register attaches the endpoint's live traffic counters to an obs
// registry, labeled with this endpoint's id.
func (e *LoopEndpoint) Register(reg *obs.Registry) { e.ctr.register(reg, e.id) }

// Close marks the endpoint gone; in-flight sends to it are dropped.
func (e *LoopEndpoint) Close() error {
	e.once.Do(func() { close(e.done) })
	return nil
}
