package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"lmbalance/internal/obs"
)

// Dial/retry tuning for the TCP transport. Dial failures are expected
// at startup (peers come up in arbitrary order), so the first attempts
// retry quickly and back off; after dialDeadline the message is dropped
// and counted, mirroring a datagram to a dead host.
const (
	dialRetryStart = 5 * time.Millisecond
	dialRetryMax   = 250 * time.Millisecond
	dialDeadline   = 10 * time.Second
	sendQueueLen   = 256
	// writeBatchBytes ends a link writer's queue drain: it stops taking
	// queued frames once the pending write is this large, so one wakeup
	// costs one conn.Write of bounded size however fast the producer is.
	writeBatchBytes = 64 << 10
)

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("wire: transport closed")

// TCP is the real-network Transport: one listener for inbound frames
// and one lazily-dialed outbound connection per peer. Connections carry
// frames (see the package comment); the sender's id travels in every
// message, so no connection handshake is needed. A failed dial is
// retried with backoff until dialDeadline; a failed write closes the
// connection and redials once before dropping what it carried.
type TCP struct {
	id     int
	ln     net.Listener
	addrs  map[int]string
	inbox  chan Msg
	done   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	ctr    counters
	writes obs.Counter // conn.Write calls; MsgsSent/writes = frames per write

	mu    sync.Mutex
	links map[int]*peerLink
	conns map[net.Conn]struct{} // inbound connections, closed on Close
}

// ListenTCP starts a transport for node id listening on addr, with
// peers mapping every other node id to its dialable address.
func ListenTCP(id int, addr string, peers map[int]string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: node %d listen %s: %w", id, addr, err)
	}
	return NewTCP(id, ln, peers), nil
}

// NewTCP wraps an existing listener (useful when the caller must learn
// the bound address of a ":0" listen before building the peer table).
func NewTCP(id int, ln net.Listener, peers map[int]string) *TCP {
	t := &TCP{
		id:    id,
		ln:    ln,
		addrs: peers,
		inbox: make(chan Msg, 4*len(peers)+64),
		done:  make(chan struct{}),
		links: make(map[int]*peerLink),
		conns: make(map[net.Conn]struct{}),
	}
	ids := make([]int, 0, len(peers))
	for pid := range peers {
		ids = append(ids, pid)
	}
	t.ctr.initPeers(ids)
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Register attaches the transport's live traffic counters — totals,
// send-queue depth and the per-peer byte/msg series — to an obs
// registry, labeled with this node's id, plus the socket-write count
// that turns the message counter into frames per write. Call once at
// setup.
func (t *TCP) Register(reg *obs.Registry) {
	t.ctr.register(reg, t.id)
	reg.Attach(fmt.Sprintf(`wire_tcp_writes_total{node="%d"}`, t.id), &t.writes)
}

// PeerStats snapshots the traffic exchanged with one peer (zero Stats
// for a peer not in the table).
func (t *TCP) PeerStats(id int) Stats { return t.ctr.peerStats(id) }

// Addr returns the listener's address.
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

// Inbox is the stream of messages addressed to this node.
func (t *TCP) Inbox() <-chan Msg { return t.inbox }

// Stats snapshots the traffic counters.
func (t *TCP) Stats() Stats { return t.ctr.snapshot() }

// Send enqueues m for peer `to`. It blocks only when the peer's send
// queue is full (backpressure); a closed transport errors immediately.
func (t *TCP) Send(to int, m Msg) error {
	if to == t.id {
		return fmt.Errorf("wire: node %d sending to itself", t.id)
	}
	addr, ok := t.addrs[to]
	if !ok {
		return fmt.Errorf("wire: node %d has no address for peer %d", t.id, to)
	}
	link, err := t.link(to, addr)
	if err != nil {
		return err
	}
	select {
	case link.q <- m:
		t.ctr.queueDepth.Add(1)
		return nil
	case <-t.done:
		return ErrClosed
	}
}

// Close stops the listener, drains and flushes the outbound queues,
// closes every connection and waits for all goroutines to exit.
func (t *TCP) Close() error {
	t.once.Do(func() {
		close(t.done)
		t.ln.Close()
		t.mu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}

// link returns (starting if needed) the outbound link to a peer.
func (t *TCP) link(to int, addr string) (*peerLink, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.done:
		return nil, ErrClosed
	default:
	}
	l, ok := t.links[to]
	if !ok {
		l = &peerLink{t: t, to: to, addr: addr, q: make(chan Msg, sendQueueLen)}
		t.links[to] = l
		t.wg.Add(1)
		go l.writer()
	}
	return l, nil
}

// acceptLoop admits inbound connections and spawns one reader each.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		select {
		case <-t.done:
			t.mu.Unlock()
			c.Close()
			return
		default:
		}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

// readLoop decodes frames off one inbound connection into the inbox.
func (t *TCP) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.conns, c)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	for {
		m, n, err := ReadFrame(br)
		if err != nil {
			return // EOF on peer close, or a framing error: drop the conn
		}
		t.ctr.countRecv(m.From, int64(n))
		select {
		case t.inbox <- m:
		case <-t.done:
			return
		}
	}
}

// ReadFrame reads one complete frame from br and returns the decoded
// message and the number of wire bytes consumed. Length prefixes above
// MaxPayload are rejected before any payload is read. The payload is
// decoded where it sits in br's buffer (see peekPayload): DecodeMsg
// copies every field out, so the message outlives the next read.
func ReadFrame(br *bufio.Reader) (Msg, int, error) {
	var m Msg
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return m, 0, err
	}
	if size > MaxPayload {
		return m, 0, fmt.Errorf("wire: frame length %d exceeds max payload %d", size, MaxPayload)
	}
	prefixLen := uvarintLen(size)
	p, discard, err := peekPayload(br, int(size))
	if err != nil {
		return m, prefixLen, fmt.Errorf("wire: truncated frame: %w", err)
	}
	m, err = DecodeMsg(p)
	br.Discard(discard) // cannot fail: peekPayload saw these bytes buffered
	return m, prefixLen + int(size), err
}

// peekPayload returns the next size bytes of br for decoding and how
// many of them the caller must br.Discard once it has decoded. A payload
// that fits br's buffer is returned in place — no copy, no allocation,
// valid until the next read on br. One larger than the buffer
// (bufio.ErrBufferFull: only a fat JobMove, or a reader built smaller
// than a frame) is read into a slice of its own, with nothing left to
// discard. A stream that ends inside the payload is io.ErrUnexpectedEOF.
func peekPayload(br *bufio.Reader, size int) (p []byte, discard int, err error) {
	p, err = br.Peek(size)
	if err == nil {
		return p, size, nil
	}
	if errors.Is(err, bufio.ErrBufferFull) {
		p = make([]byte, size)
		if _, err = io.ReadFull(br, p); err == nil {
			return p, 0, nil
		}
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return nil, 0, err
}

// peerLink is one outbound connection with its queue and writer.
type peerLink struct {
	t    *TCP
	to   int
	addr string
	q    chan Msg

	conn net.Conn // writer-goroutine private
	enc  []byte
}

// writer drains the queue onto the connection, dialing on demand. On
// shutdown it flushes whatever is still queued — the Bye message of the
// shutdown protocol must reach the coordinator — then closes.
func (l *peerLink) writer() {
	defer l.t.wg.Done()
	defer func() {
		if l.conn != nil {
			l.conn.Close()
		}
	}()
	for {
		select {
		case m := <-l.q:
			l.flush(m)
		case <-l.t.done:
			for {
				select {
				case m := <-l.q:
					l.flush(m)
				default:
					return
				}
			}
		}
	}
}

// flush sends m and every frame already queued behind it with one
// conn.Write: dial if disconnected, and on a write failure redial once
// and resend the whole batch before dropping it. It takes what is
// queued and never waits for more — the frames on a cluster link are
// legs of round trips some node's freeze is waiting on. Accounting
// stays per frame, and the queue-depth gauge lets go of a frame only
// once it is counted as sent or dropped.
func (l *peerLink) flush(m Msg) {
	ctr := &l.t.ctr
	if l.conn == nil && !l.dial() {
		ctr.countSendError(l.to, 1)
		ctr.queueDepth.Add(-1)
		return
	}
	l.enc = AppendFrame(l.enc[:0], m)
	frames := int64(1)
drain:
	for len(l.enc) < writeBatchBytes {
		select {
		case m = <-l.q:
			l.enc = AppendFrame(l.enc, m)
			frames++
		default:
			break drain
		}
	}
	defer ctr.queueDepth.Add(-frames)
	for attempt := 0; ; attempt++ {
		l.t.writes.Inc()
		if _, err := l.conn.Write(l.enc); err == nil {
			ctr.countSend(l.to, frames, int64(len(l.enc)))
			return
		}
		l.conn.Close()
		l.conn = nil
		ctr.redials.Add(1)
		if attempt == 1 || !l.dial() {
			ctr.countSendError(l.to, frames)
			return
		}
	}
}

// dial connects to the peer, retrying with backoff: peers of a starting
// cluster come up in arbitrary order, so early connection refusals are
// normal. Gives up at dialDeadline or transport shutdown... except that
// shutdown still grants one quick final attempt so queued shutdown
// messages can flush.
func (l *peerLink) dial() bool {
	backoff := dialRetryStart
	deadline := time.Now().Add(dialDeadline)
	for {
		c, err := net.Dial("tcp", l.addr)
		if err == nil {
			l.conn = c
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-l.t.done:
			// One immediate last try, then give up: the peer is either
			// up by now or never will be.
			c, err := net.Dial("tcp", l.addr)
			if err != nil {
				return false
			}
			l.conn = c
			return true
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > dialRetryMax {
			backoff = dialRetryMax
		}
	}
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// NewLocalCluster listens on n loopback-TCP ports and wires n fully
// meshed transports over them — the one-command path to a real-socket
// cluster in a single process (cmd/lbnode -spawn, tests, experiments).
func NewLocalCluster(n int) ([]*TCP, error) {
	lns := make([]net.Listener, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("wire: local cluster listen: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ts := make([]*TCP, n)
	for i := 0; i < n; i++ {
		peers := make(map[int]string, n-1)
		for j, a := range addrs {
			if j != i {
				peers[j] = a
			}
		}
		ts[i] = NewTCP(i, lns[i], peers)
	}
	return ts, nil
}

// LocalTransports brings up n fully connected transports inside one
// process, endpoint i for node i: the in-memory loopback fabric, or
// real loopback-TCP sockets (NewLocalCluster).
func LocalTransports(n int, loopback bool) ([]Transport, error) {
	ts := make([]Transport, n)
	if loopback {
		lnet := NewLoopback(n)
		for i := range ts {
			ts[i] = lnet.Transport(i)
		}
		return ts, nil
	}
	tcps, err := NewLocalCluster(n)
	if err != nil {
		return nil, err
	}
	for i, t := range tcps {
		ts[i] = t
	}
	return ts, nil
}
