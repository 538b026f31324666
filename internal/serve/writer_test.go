package serve

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"

	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

// recWriter hands every Write it receives to the test, which waits on
// the channel — the tests below block on events, never on a clock.
type recWriter chan []byte

func (w recWriter) Write(p []byte) (int, error) {
	w <- append([]byte(nil), p...)
	return len(p), nil
}

// decodeCFrames decodes b as a back-to-back run of client frames.
func decodeCFrames(t *testing.T, b []byte) []wire.CMsg {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(b))
	var out []wire.CMsg
	for {
		m, _, err := wire.ReadCFrame(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d of the write does not decode: %v", len(out), err)
		}
		out = append(out, m)
	}
}

// done is a CDone with full-width stamps, the largest client frame.
func done(tag uint64) wire.CMsg {
	return wire.CMsg{Kind: wire.CDone, Job: tag, SubmitNS: 1_700_000_000_000_000_000, DoneNS: 1_700_000_000_000_700_000}
}

// outbox is a connection writer running against a recording writer.
type outbox struct {
	out             chan wire.CMsg
	dead            chan struct{}
	w               recWriter
	frames, flushes obs.Counter
	exit            chan error
}

func newOutbox(depth int) *outbox {
	return &outbox{out: make(chan wire.CMsg, depth), dead: make(chan struct{}), w: make(recWriter, depth), exit: make(chan error, 1)}
}

func (o *outbox) start() {
	go func() { o.exit <- drainOutbox(o.w, o.out, o.dead, &o.frames, &o.flushes) }()
}

// stop ends the writer and reports the writes it made beyond those the
// test already received.
func (o *outbox) stop(t *testing.T) (extra int) {
	t.Helper()
	close(o.dead)
	if err := <-o.exit; err != nil {
		t.Fatalf("writer exited with %v", err)
	}
	return len(o.w)
}

// TestWriterBatchesQueuedFrames: frames enqueued before the writer
// first runs leave in one Write, in order.
func TestWriterBatchesQueuedFrames(t *testing.T) {
	const n = 50
	o := newOutbox(n)
	var want []wire.CMsg
	for i := 0; i < n; i++ {
		m := done(uint64(i))
		if i%3 == 0 {
			m = wire.CMsg{Kind: wire.CAccepted, Job: uint64(i), Load: i}
		}
		want = append(want, m)
		o.out <- m
	}
	o.start()
	got := decodeCFrames(t, <-o.w)
	if len(got) != n {
		t.Fatalf("first write carries %d of %d queued frames", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if extra := o.stop(t); extra != 0 {
		t.Fatalf("%d further writes for frames already written", extra)
	}
	if o.frames.Value() != n || o.flushes.Value() != 1 {
		t.Fatalf("counted %d frames in %d flushes, want %d in 1", o.frames.Value(), o.flushes.Value(), n)
	}
}

// TestWriterLoneFrameNeedsNoCompany is the liveness half of the
// yield-then-flush rule: one frame on an idle writer is written with no
// further enqueue, tick or timeout. (A rule that waited for company
// would hang here until the test binary's own timeout.)
func TestWriterLoneFrameNeedsNoCompany(t *testing.T) {
	o := newOutbox(4)
	o.start()
	for tag := uint64(1); tag <= 3; tag++ {
		o.out <- done(tag)
		if got := decodeCFrames(t, <-o.w); len(got) != 1 || got[0] != done(tag) {
			t.Fatalf("lone frame %d came out as %+v", tag, got)
		}
	}
	if extra := o.stop(t); extra != 0 {
		t.Fatalf("%d unexpected extra writes", extra)
	}
	if o.frames.Value() != 3 || o.flushes.Value() != 3 {
		t.Fatalf("counted %d frames in %d flushes, want 3 in 3", o.frames.Value(), o.flushes.Value())
	}
}

// TestWriterBatchIsBounded: a backlog larger than writeBatchBytes goes
// out in bounded writes without waiting for the outbox to run empty,
// and nothing is lost or reordered across the cut.
func TestWriterBatchIsBounded(t *testing.T) {
	frame := len(wire.AppendCFrame(nil, done(1)))
	n := 2*writeBatchBytes/frame + 10
	o := newOutbox(n)
	for i := 0; i < n; i++ {
		o.out <- done(uint64(i))
	}
	o.start()
	first := <-o.w
	if len(first) < writeBatchBytes || len(first) >= writeBatchBytes+frame {
		t.Fatalf("first write is %d bytes, want [%d, %d)", len(first), writeBatchBytes, writeBatchBytes+frame)
	}
	all := decodeCFrames(t, first)
	for len(all) < n {
		all = append(all, decodeCFrames(t, <-o.w)...)
	}
	for i, m := range all {
		if m != done(uint64(i)) {
			t.Fatalf("frame %d: got %+v", i, m)
		}
	}
	o.stop(t)
}

// bareConn is a srvConn on one end of an in-memory pipe with the given
// outbox depth; the test holds the other end.
func bareConn(depth int) (*srvConn, net.Conn) {
	near, far := net.Pipe()
	return &srvConn{nc: near, out: make(chan wire.CMsg, depth), dead: make(chan struct{})}, far
}

// TestWriteErrorHangsUp: a failed Write closes the connection, and
// whatever is enqueued for it afterwards is counted as dropped.
func TestWriteErrorHangsUp(t *testing.T) {
	s := &Server{}
	c, far := bareConn(4)
	far.Close() // every Write on the near end now fails
	s.wg.Add(1)
	go s.writeLoop(c)
	s.enqueue(c, wire.CMsg{Kind: wire.CAccepted, Job: 1})
	s.wg.Wait() // the writer exits on the error
	select {
	case <-c.dead:
	default:
		t.Fatal("write error left the connection open")
	}
	s.enqueue(c, done(1))
	if st := s.Stats(); st.DonesDropped != 1 || st.AcksDropped != 0 {
		t.Fatalf("after a CDone to a dead connection: %d dones, %d acks dropped; want 1, 0", st.DonesDropped, st.AcksDropped)
	}
}

// TestOverflowDropsByKind: a full outbox drops instead of blocking the
// caller (the node goroutine), and an ack lost that way is not counted
// as a lost completion — DonesDropped is what the job-conservation
// audit subtracts from the CDones a client must have seen.
func TestOverflowDropsByKind(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewServer(2, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, far := bareConn(2) // no writer: the outbox fills and stays full
	defer far.Close()
	defer c.close()
	s.enqueue(c, wire.CMsg{Kind: wire.CAccepted, Job: 1})
	s.enqueue(c, done(1))
	s.enqueue(c, wire.CMsg{Kind: wire.CAccepted, Job: 2}) // full: dropped ack
	if st := s.Stats(); st.DonesDropped != 0 || st.AcksDropped != 1 {
		t.Fatalf("after a dropped ack: %d dones, %d acks dropped; want 0, 1", st.DonesDropped, st.AcksDropped)
	}
	s.enqueue(c, done(2)) // full: dropped completion
	s.enqueue(c, done(3))
	if st := s.Stats(); st.DonesDropped != 2 || st.AcksDropped != 1 {
		t.Fatalf("after two dropped CDones: %d dones, %d acks dropped; want 2, 1", st.DonesDropped, st.AcksDropped)
	}
	if got := reg.Counter(`serve_acks_dropped_total{node="2"}`).Value(); got != 1 {
		t.Fatalf("registered ack-drop counter %d, want 1", got)
	}
	if got := reg.Counter(`serve_dones_dropped_total{node="2"}`).Value(); got != 2 {
		t.Fatalf("registered done-drop counter %d, want 2", got)
	}
	if len(c.out) != 2 {
		t.Fatalf("outbox holds %d frames, want the first 2", len(c.out))
	}
}

// TestConnCountersOnMetrics: frames and the socket writes that carried
// them are counted per node, so frames per write is readable from
// /metrics.
func TestConnCountersOnMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewServer(1, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, far := bareConn(8)
	defer c.close()
	for tag := uint64(1); tag <= 5; tag++ {
		s.enqueue(c, done(tag))
	}
	s.wg.Add(1)
	go s.writeLoop(c)
	frame := len(wire.AppendCFrame(nil, done(1)))
	// Both counters move before the bytes do, so once the bytes are
	// here the counts are final.
	if _, err := io.ReadFull(far, make([]byte, 5*frame)); err != nil {
		t.Fatal(err)
	}
	c.close()
	far.Close()
	frames, flushes := reg.Counter(`serve_conn_frames_total{node="1"}`).Value(), reg.Counter(`serve_conn_flushes_total{node="1"}`).Value()
	if frames != 5 || flushes != 1 {
		t.Fatalf("registry shows %d frames in %d flushes, want 5 in 1", frames, flushes)
	}
}

// TestClientBatchesStagedSubmits: Submit is one frame in one write;
// submissions staged by Drive for arrivals already due leave together
// on the next flush.
func TestClientBatchesStagedSubmits(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	c := &Client{nc: near}
	defer near.Close()
	read := func(frames int) []wire.CMsg {
		t.Helper()
		size := len(wire.AppendCFrame(nil, wire.CMsg{Kind: wire.CSubmit, Job: 1, Units: 1}))
		buf := make([]byte, frames*size+1)
		n, err := far.Read(buf) // one Read sees exactly one Write on a pipe
		if err != nil {
			t.Fatal(err)
		}
		return decodeCFrames(t, buf[:n])
	}
	errc := make(chan error, 1)
	go func() { errc <- c.Submit(3) }()
	if got := read(1); len(got) != 1 || got[0] != (wire.CMsg{Kind: wire.CSubmit, Job: 1, Units: 3}) {
		t.Fatalf("Submit wrote %+v", got)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{2, 0, 5} { // 0 is clamped to 1 like Submit
		if err := c.submitLater(u); err != nil {
			t.Fatal(err)
		}
	}
	go func() { errc <- c.flushPending() }()
	got := read(3)
	want := []wire.CMsg{{Kind: wire.CSubmit, Job: 2, Units: 2}, {Kind: wire.CSubmit, Job: 3, Units: 1}, {Kind: wire.CSubmit, Job: 4, Units: 5}}
	if len(got) != len(want) {
		t.Fatalf("flush wrote %d frames in its first write, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("staged frame %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if c.Submitted() != 4 {
		t.Fatalf("Submitted() = %d, want 4", c.Submitted())
	}
	if err := c.flushPending(); err != nil { // nothing staged: no write, so no reader needed
		t.Fatal(err)
	}
}
