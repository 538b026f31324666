package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"lmbalance/internal/obs"
)

// recConn is a net.Conn that records each Write it is handed (or fails
// every one of them when fail is set) and does nothing else.
type recConn struct {
	net.Conn // nil: only Write and Close are ever called by a peerLink
	fail     bool
	writes   [][]byte
	closed   bool
}

func (c *recConn) Write(p []byte) (int, error) {
	if c.fail {
		return 0, errors.New("recConn: write refused")
	}
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *recConn) Close() error { c.closed = true; return nil }

// testLink builds a transport, with no listener, whose one link (to
// peer 1 at addr) is up over conn, so a test drives send and the
// dialer directly.
func testLink(conn net.Conn, addr string) *peerLink {
	t := &TCP{id: 0, done: make(chan struct{})}
	t.ctr.initPeers([]int{1})
	return &peerLink{t: t, to: 1, addr: addr, conn: conn}
}

// freeAddr returns a loopback address that nothing listens on (yet).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// burst is a mixed run of small control frames and a job-record frame.
func burst() []Msg {
	return []Msg{
		{Kind: FreezeReq, From: 0, Seq: 1, Op: 0xabc},
		{Kind: Release, From: 0, Seq: 1, Op: 0xabc},
		{Kind: JobMove, From: 0, Seq: 2, SentNS: 1_000_000, Jobs: []JobRef{
			{Origin: 0, ID: 7, IngestNS: 999_000, Hops: 1, TransferNS: 40},
			{Origin: 3, ID: 9, IngestNS: 998_000},
		}},
		{Kind: Transfer, From: 0, Seq: 2, Op: 0xdef, Amount: -2},
		{Kind: JobDone, From: 0, Job: 11, IngestNS: 5, ConsumeNS: 9, Hops: 2, TransferNS: 3},
		{Kind: Bye, From: 0, Load: 4, Gen: 10, Con: 6},
	}
}

// readFrames decodes r as a back-to-back run of frames until EOF.
func readFrames(t *testing.T, r io.Reader) []Msg {
	t.Helper()
	br := bufio.NewReader(r)
	var out []Msg
	for {
		m, _, err := ReadFrame(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d of the write does not decode: %v", len(out), err)
		}
		out = append(out, m)
	}
}

func wantMsgs(t *testing.T, got, want []Msg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("frame %d: got %+v, want %+v (order or content lost)", i, got[i], want[i])
		}
	}
}

// TestPeerLinkOrderAcrossConnect: frames sent while a link is down are
// held, and the dialer writes them before it publishes the connection,
// so no frame sent around the connect overtakes them. Half the frames
// are sent before anything listens, so the link holds them; the
// listener then comes up, and the other half leaves back to back from
// the moment it accepts the dialer's connection.
func TestPeerLinkOrderAcrossConnect(t *testing.T) {
	addr := freeAddr(t)
	a, err := ListenTCP(0, "127.0.0.1:0", map[int]string{1: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const frames = 100
	send := func(seq int) {
		if err := a.Send(1, Msg{Kind: FreezeReq, From: 0, Seq: uint64(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	for seq := 0; seq < frames/2; seq++ {
		send(seq)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for seq := frames / 2; seq < frames; seq++ {
		send(seq)
	}
	br := bufio.NewReader(in)
	for want := 0; want < frames; want++ {
		m, _, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if m.Seq != uint64(want) {
			t.Fatalf("frame %d arrived in place %d", m.Seq, want)
		}
	}
}

// TestPeerLinkRedialResendsBatch: a failed write closes the connection
// and hands its frame to the dialer; the frames sent while it redials
// are held behind it, and the redial sends the whole batch again, in
// order and in one write, on the new connection.
func TestPeerLinkRedialResendsBatch(t *testing.T) {
	addr := freeAddr(t) // nothing listens until the batch is held
	msgs := burst()
	broken := &recConn{fail: true}
	l := testLink(broken, addr)
	for _, m := range msgs {
		if err := l.send(m); err != nil {
			t.Fatal(err)
		}
	}
	if !broken.closed {
		t.Fatal("failed connection left open")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	l.t.wg.Wait()  // the dialer has connected and resent
	l.conn.Close() // EOF for the reader below
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	wantMsgs(t, readFrames(t, in), msgs)
	st := l.t.Stats()
	if st.MsgsSent != int64(len(msgs)) || st.SendErrors != 0 || st.Redials != 1 {
		t.Fatalf("sent %d, errors %d, redials %d; want %d, 0, 1", st.MsgsSent, st.SendErrors, st.Redials, len(msgs))
	}
	if got := l.t.writes.Value(); got != 2 {
		t.Fatalf("write counter %d, want 2 (the failed attempt and the resend)", got)
	}
}

// TestPeerLinkDropCountsEveryFrame: when the redial fails too, every
// held frame is a send error on that peer's link, none is counted sent,
// and the held-frame gauge returns to 0.
func TestPeerLinkDropCountsEveryFrame(t *testing.T) {
	gone := freeAddr(t) // nothing listens here any more
	msgs := burst()
	l := testLink(&recConn{fail: true}, gone)
	for _, m := range msgs {
		if err := l.send(m); err != nil {
			t.Fatal(err)
		}
	}
	close(l.t.done) // shutdown: dial gives up after one immediate retry
	l.t.wg.Wait()
	st, ps := l.t.Stats(), l.t.PeerStats(1)
	if st.MsgsSent != 0 || st.SendErrors != int64(len(msgs)) || ps.SendErrors != st.SendErrors {
		t.Fatalf("sent %d, errors %d (peer %d); want 0, %d", st.MsgsSent, st.SendErrors, ps.SendErrors, len(msgs))
	}
	if got := l.t.ctr.queueDepth.Value(); got != 0 {
		t.Fatalf("queue depth %d after the batch was dropped, want 0", got)
	}
}

// TestTCPCloseFlushesQueuedBye: Close right behind a burst still
// delivers all of it — frames held while the link dials are written by
// the dialer's last attempt, and the coordinator's audit waits for that
// Bye.
func TestTCPCloseFlushesQueuedBye(t *testing.T) {
	ts, err := NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ts[1].Close()
	reg := obs.NewRegistry()
	ts[0].Register(reg)
	msgs := burst()
	for i := range msgs {
		if err := ts[0].Send(1, msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ts[0].Close()
	var got []Msg
	for len(got) < len(msgs) {
		select {
		case m := <-ts[1].Inbox():
			got = append(got, m)
		case <-time.After(dialDeadline):
			t.Fatalf("only %d of %d frames arrived after Close", len(got), len(msgs))
		}
	}
	wantMsgs(t, got, msgs)
	if st := ts[0].Stats(); st.MsgsSent != int64(len(msgs)) || st.SendErrors != 0 {
		t.Fatalf("sent %d, errors %d; want %d, 0", st.MsgsSent, st.SendErrors, len(msgs))
	}
	// Frames per write is readable from /metrics: the write count sits
	// beside the message count.
	if w := reg.Counter(`wire_tcp_writes_total{node="0"}`).Value(); w < 1 || w > int64(len(msgs)) {
		t.Fatalf("registered write counter %d for %d frames", w, len(msgs))
	}
}

// fixedSizeMsgs is sampleMsgs without the messages whose decode
// allocates by design (a Jobs slice).
func fixedSizeMsgs() []Msg {
	var out []Msg
	for _, m := range sampleMsgs() {
		if len(m.Jobs) == 0 {
			out = append(out, m)
		}
	}
	return out
}

// repeated returns frame × n as one reader-backed bufio.Reader.
func repeated(frame []byte, n int) *bufio.Reader {
	return bufio.NewReader(bytes.NewReader(bytes.Repeat(frame, n)))
}

// TestReadFrameAllocs gates the in-place read: a fixed-size frame costs
// no allocation at all, a JobMove exactly its Jobs slice.
func TestReadFrameAllocs(t *testing.T) {
	const runs = 200
	for _, m := range fixedSizeMsgs() {
		br := repeated(AppendFrame(nil, m), runs+1)
		if n := testing.AllocsPerRun(runs, func() {
			if _, _, err := ReadFrame(br); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ReadFrame(%v) allocates %v times per frame, want 0", m.Kind, n)
		}
	}
	br := repeated(AppendFrame(nil, benchJourneyMsg(16)), runs+1)
	if n := testing.AllocsPerRun(runs, func() {
		if _, _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("ReadFrame(16-record JobMove) allocates %v times per frame, want 1 (the Jobs slice)", n)
	}
	for _, m := range sampleCMsgs() {
		br := repeated(AppendCFrame(nil, m), runs+1)
		if n := testing.AllocsPerRun(runs, func() {
			if _, _, err := ReadCFrame(br); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ReadCFrame(%v) allocates %v times per frame, want 0", m.Kind, n)
		}
	}
}

// TestReadFrameDoesNotAliasBuffer: a decoded message keeps no reference
// to the reader's buffer. The reader here is barely larger than a
// frame, so reading the second frame slides and refills the very bytes
// the first was decoded from.
func TestReadFrameDoesNotAliasBuffer(t *testing.T) {
	first := burst()[2] // a JobMove: the one kind holding a slice
	second := first
	second.Seq, second.SentNS = 99, 5_000_000
	second.Jobs = []JobRef{{Origin: 8, ID: 1 << 40, IngestNS: 1, Hops: 9, TransferNS: 1 << 20}, {Origin: 6, ID: 2}}
	stream := AppendFrame(AppendFrame(nil, first), second)
	br := bufio.NewReaderSize(bytes.NewReader(stream), len(stream)*2/3)
	got1, _, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(second) {
		t.Fatalf("second frame: got %+v, want %+v", got2, second)
	}
	if !got1.Equal(first) {
		t.Fatalf("first message changed when the buffer was reused: %+v, want %+v", got1, first)
	}

	c1 := CMsg{Kind: CDone, Job: 5, SubmitNS: 1 << 50, DoneNS: 1<<50 + 77}
	c2 := CMsg{Kind: CDone, Job: 6, SubmitNS: 1 << 51, DoneNS: 1<<51 + 1}
	cstream := AppendCFrame(AppendCFrame(nil, c1), c2)
	cbr := bufio.NewReaderSize(bytes.NewReader(cstream), len(cstream)*2/3)
	gc1, _, err := ReadCFrame(cbr)
	if err != nil {
		t.Fatal(err)
	}
	if gc2, _, err := ReadCFrame(cbr); err != nil || gc2 != c2 {
		t.Fatalf("second client frame: %+v, %v", gc2, err)
	}
	if gc1 != c1 {
		t.Fatalf("first client message changed: %+v, want %+v", gc1, c1)
	}
}

// TestReadFrameLargerThanBuffer: a frame that does not fit the reader's
// buffer takes the copying path and decodes the same; a truncated one
// is still an unexpected EOF there.
func TestReadFrameLargerThanBuffer(t *testing.T) {
	for _, m := range sampleMsgs() {
		frame := AppendFrame(nil, m)
		got, n, err := ReadFrame(bufio.NewReaderSize(bytes.NewReader(frame), 16))
		if err != nil || !got.Equal(m) || n != len(frame) {
			t.Fatalf("%v through a 16-byte reader: %+v, %d bytes, %v", m.Kind, got, n, err)
		}
	}
	frame := AppendFrame(nil, benchJourneyMsg(16))
	for _, size := range []int{16, 4096} {
		_, _, err := ReadFrame(bufio.NewReaderSize(bytes.NewReader(frame[:len(frame)-1]), size))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated frame through a %d-byte reader: %v, want unexpected EOF", size, err)
		}
	}
}
