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
// retry quickly and back off; after dialDeadline the held frames are
// dropped and counted, mirroring a datagram to a dead host.
const (
	dialRetryStart = 5 * time.Millisecond
	dialRetryMax   = 250 * time.Millisecond
	dialDeadline   = 10 * time.Second
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
	inbox  chan Msg
	done   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	ctr    counters
	writes obs.Counter       // conn.Write calls; MsgsSent/writes = frames per write
	links  map[int]*peerLink // one per peer, built in NewTCP; read-only after

	mu    sync.Mutex
	conns map[net.Conn]struct{} // inbound connections, closed on Close

	// dialFailed, if set before the first Send, is called after every
	// failed dial attempt: the event a test of the redial path waits on.
	dialFailed func()
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
		inbox: make(chan Msg, 4*len(peers)+64),
		done:  make(chan struct{}),
		links: make(map[int]*peerLink, len(peers)),
		conns: make(map[net.Conn]struct{}),
	}
	ids := make([]int, 0, len(peers))
	for pid, addr := range peers {
		ids = append(ids, pid)
		t.links[pid] = &peerLink{t: t, to: pid, addr: addr}
	}
	t.ctr.initPeers(ids)
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Register attaches the transport's live traffic counters — totals,
// held-frame depth and the per-peer byte/msg series — to an obs
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

// Send writes m to peer `to`'s connection on the caller's goroutine, so
// it blocks while the kernel's socket buffer toward that peer is full.
// While the link is down the frame is held for the link's dialer and
// Send returns at once: it never dials, sleeps or waits for a dial. A
// closed transport errors immediately.
func (t *TCP) Send(to int, m Msg) error {
	if to == t.id {
		return fmt.Errorf("wire: node %d sending to itself", t.id)
	}
	l, ok := t.links[to]
	if !ok {
		return fmt.Errorf("wire: node %d has no address for peer %d", t.id, to)
	}
	return l.send(m)
}

// Close stops the listener, closes every connection and waits for all
// goroutines to exit. A link still dialing makes one last attempt and
// writes what it holds, so a frame sent before Close still arrives.
func (t *TCP) Close() error {
	t.once.Do(func() {
		close(t.done)
		t.ln.Close()
		t.mu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.mu.Unlock()
		// Under each link's lock: a Send or dialer that saw the
		// transport open is done with the link, and none starts later.
		for _, l := range t.links {
			l.mu.Lock()
			if l.conn != nil {
				l.conn.Close()
				l.conn = nil
			}
			l.mu.Unlock()
		}
	})
	t.wg.Wait()
	return nil
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
// (bufio.ErrBufferFull: only a frame fat with job records, or a reader
// built smaller than a frame) is read into a slice of its own, with
// nothing left to discard. A stream that ends inside the payload is io.ErrUnexpectedEOF.
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

// peerLink is one outbound connection. While it is up, Send encodes
// and writes on the caller's goroutine under mu. While it is down, one
// dialer goroutine reconnects, and the frames sent meanwhile wait in
// held, encoded back to back.
type peerLink struct {
	t    *TCP
	to   int
	addr string

	mu      sync.Mutex
	conn    net.Conn // nil while the link is down
	dialing bool     // a dialer goroutine owns the reconnect
	enc     []byte   // the frame being sent
	held    []byte   // frames sent while down, in order
	nheld   int64
}

// send writes m, or holds it for the dialer while the link is down. A
// frame whose write fails is held too, so the dialer resends it once.
func (l *peerLink) send(m Msg) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.t.done:
		return ErrClosed
	default:
	}
	l.enc = AppendFrame(l.enc[:0], m)
	up := l.conn != nil
	if up && l.write(l.enc, 1) {
		return nil
	}
	l.held = append(l.held, l.enc...)
	l.nheld++
	l.t.ctr.queueDepth.Add(1)
	if !l.dialing {
		l.dialing = true
		l.t.wg.Add(1)
		go l.dialer(up)
	}
	return nil
}

// write is the link's one conn.Write, of frames frames encoded back to
// back in buf. Accounting is per frame. A failed write closes the
// connection and counts a redial.
func (l *peerLink) write(buf []byte, frames int64) bool {
	l.t.writes.Inc()
	if _, err := l.conn.Write(buf); err != nil {
		l.conn.Close()
		l.conn = nil
		l.t.ctr.redials.Add(1)
		return false
	}
	l.t.ctr.countSend(l.to, frames, int64(len(buf)))
	return true
}

// dialer reconnects a down link. It writes the held frames in one write
// and only then publishes the connection, under mu, so no later Send
// overtakes them. A batch whose write already failed once (resent) is
// dropped if it fails again; so is everything held when the dial gives
// up. Either way each dropped frame is a send error on this peer.
func (l *peerLink) dialer(resent bool) {
	defer l.t.wg.Done()
	for {
		c := l.dial()
		l.mu.Lock()
		if c != nil {
			l.conn = c
			if l.write(l.held, l.nheld) {
				break
			}
		}
		if c == nil || resent {
			l.t.ctr.countSendError(l.to, l.nheld)
			break
		}
		resent = true
		l.mu.Unlock()
	}
	select {
	case <-l.t.done: // Close has passed this link or will find it down
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
	default:
	}
	l.t.ctr.queueDepth.Add(-l.nheld)
	l.held, l.nheld, l.dialing = l.held[:0], 0, false
	l.mu.Unlock()
}

// dial connects to the peer, retrying with backoff: peers of a starting
// cluster come up in arbitrary order, so early connection refusals are
// normal. Gives up (nil) at dialDeadline or transport shutdown... except
// that shutdown still grants one quick final attempt so held shutdown
// messages can flush.
func (l *peerLink) dial() net.Conn {
	backoff := dialRetryStart
	deadline := time.Now().Add(dialDeadline)
	for {
		c, err := net.Dial("tcp", l.addr)
		if err == nil {
			return c
		}
		if l.t.dialFailed != nil {
			l.t.dialFailed()
		}
		if time.Now().After(deadline) {
			return nil
		}
		select {
		case <-l.t.done:
			// One immediate last try, then give up: the peer is either
			// up by now or never will be.
			if c, err := net.Dial("tcp", l.addr); err == nil {
				return c
			}
			return nil
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
