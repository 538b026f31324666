package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"lmbalance/internal/obs"
)

// sampleMsgs covers every kind with representative field values,
// including negative deltas and large epochs. The last two carry job
// records on a Transfer and a TransferAck; every earlier one is
// record-free and encodes as at Version 3 but for the version byte.
func sampleMsgs() []Msg {
	return []Msg{
		{Kind: FreezeReq, From: 0, Seq: 1},
		{Kind: FreezeReq, From: 1023, Seq: 1 << 40},
		{Kind: FreezeReq, From: 4, Seq: 2, Op: 0xdeadbeefcafe},
		{Kind: FreezeAck, From: 3, Seq: 7, Load: 0},
		{Kind: FreezeAck, From: 3, Seq: 7, Op: 1 << 63, Load: 123456},
		{Kind: FreezeBusy, From: 2, Seq: 9, Op: 12345},
		{Kind: Transfer, From: 5, Seq: 11, Amount: -4231},
		{Kind: Transfer, From: 5, Seq: 11, Op: 987654321, Amount: 17},
		{Kind: TransferAck, From: 6, Seq: 11, Op: 987654321},
		{Kind: Release, From: 7, Seq: 12, Op: 3},
		{Kind: Idle, From: 8},
		{Kind: Quit, From: 0},
		{Kind: Bye, From: 9, Load: 42, Gen: 10000, Con: 9958},
		{Kind: JobMove, From: 2, Seq: 5},
		{Kind: JobMove, From: 2, Seq: 5, Op: 777, Jobs: []JobRef{
			{Origin: 2, ID: 1}, {Origin: 13, ID: 1 << 50}, {Origin: 0, ID: 0}}},
		{Kind: JobMove, From: 6, Seq: 8, Op: 42, SentNS: 1_700_000_000_123_456_789, Jobs: []JobRef{
			{Origin: 6, ID: 3, IngestNS: 1_700_000_000_123_000_000, Hops: 0, TransferNS: 0},
			{Origin: 1, ID: 9, IngestNS: 1_699_999_999_000_000_000, Hops: 4, TransferNS: 2_500_000}}},
		{Kind: JobDone, From: 4, Seq: 3, Job: 9001},
		{Kind: JobDone, From: 4, Seq: 3, Op: 11, Job: 9002,
			IngestNS: 1_700_000_000_000_000_000, ConsumeNS: 1_700_000_000_004_000_000,
			Hops: 2, TransferNS: 750_000},
		{Kind: Transfer, From: 5, Seq: 11, Op: 987654321, Amount: 2, SentNS: 1_700_000_000_123_456_789, Jobs: []JobRef{
			{Origin: 5, ID: 3, IngestNS: 1_700_000_000_123_000_000, Hops: 1, TransferNS: 40_000}}},
		{Kind: TransferAck, From: 6, Seq: 11, Op: 987654321, SentNS: 1_700_000_000_123_456_789, Jobs: []JobRef{
			{Origin: 6, ID: 8}, {Origin: 2, ID: 1 << 40, IngestNS: 1_700_000_000_000_000_000, Hops: 3}}},
	}
}

// riderMsgs are Transfers and TransferAcks carrying 0, 1 and
// MaxJobsPerMsg records, every field at its widest varint.
func riderMsgs() []Msg {
	var out []Msg
	for _, kind := range []Kind{Transfer, TransferAck} {
		for _, count := range []int{0, 1, MaxJobsPerMsg} {
			m := Msg{Kind: kind, From: math.MinInt64, Seq: math.MaxUint64, Op: math.MaxUint64}
			if kind == Transfer {
				m.Amount = math.MinInt64
			}
			if count > 0 {
				m.SentNS = math.MaxInt64
			}
			for i := 0; i < count; i++ {
				m.Jobs = append(m.Jobs, JobRef{Origin: math.MinInt64, ID: math.MaxUint64,
					IngestNS: math.MinInt64, Hops: math.MaxInt64, TransferNS: math.MinInt64})
			}
			out = append(out, m)
		}
	}
	return out
}

func TestRoundTripPayload(t *testing.T) {
	for _, m := range sampleMsgs() {
		p := AppendMsg(nil, m)
		if len(p) > MaxPayload {
			t.Fatalf("%+v encodes to %d bytes > MaxPayload", m, len(p))
		}
		if got := EncodedSize(m); got != len(p) {
			t.Fatalf("EncodedSize %d != payload %d for %+v", got, len(p), m)
		}
		dm, err := DecodeMsg(p)
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if !dm.Equal(m) {
			t.Fatalf("round trip changed message: sent %+v got %+v", m, dm)
		}
	}
}

func TestRoundTripFrame(t *testing.T) {
	// All samples concatenated into one stream, then read back.
	var stream []byte
	msgs := sampleMsgs()
	for _, m := range msgs {
		stream = AppendFrame(stream, m)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	total := 0
	for i, want := range msgs {
		m, n, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !m.Equal(want) {
			t.Fatalf("frame %d: sent %+v got %+v", i, want, m)
		}
		if n <= EncodedSize(want) {
			t.Fatalf("frame %d: wire bytes %d not larger than payload %d", i, n, EncodedSize(want))
		}
		total += n
	}
	if total != len(stream) {
		t.Fatalf("frames consumed %d bytes, stream has %d", total, len(stream))
	}
	if _, _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

// corruptPayloads is one payload per way of being wrong that the
// decoder must refuse; also the fuzzer's seeds for the raw direction.
func corruptPayloads() []namedPayload {
	good := AppendMsg(nil, Msg{Kind: Transfer, From: 1, Seq: 2, Amount: -3})
	ack := AppendMsg(nil, Msg{Kind: TransferAck, From: 1, Seq: 2})
	return []namedPayload{
		{"empty", []byte{}},
		{"version only", []byte{Version}},
		{"bad version", append([]byte{Version + 1}, good[1:]...)},
		{"bad kind", []byte{Version, 0xee, 0x02, 0x04}},
		{"kind zero", []byte{Version, 0x00, 0x02, 0x04}},
		{"truncated varint", good[:len(good)-1]},
		{"trailing bytes", append(append([]byte{}, good...), 0x00)},
		{"oversized", make([]byte, MaxPayload+1)},
		// A job section on a Transfer or TransferAck is present only
		// with records in it: count 0 would be a second encoding of the
		// record-free frame.
		{"empty job section on a Transfer", append(append([]byte{}, good...), 0x00, 0x00)},
		{"empty job section on a TransferAck", append(append([]byte{}, ack...), 0x00, 0x00)},
		{"job count over MaxJobsPerMsg", append(append([]byte{}, ack...), MaxJobsPerMsg+1, 0x00)},
		{"job section short of its count", append(append([]byte{}, good...), 0x02, 0x00, 0x02, 0x04, 0x00, 0x00, 0x00)},
	}
}

type namedPayload struct {
	name string
	p    []byte
}

func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	for _, c := range corruptPayloads() {
		if _, err := DecodeMsg(c.p); err == nil {
			t.Errorf("%s: decode accepted %x", c.name, c.p)
		}
	}
}

// TestGoldenBytes pins the layout: the exact payload of every sample
// message. A diff here means the bytes on the wire (and in every flight
// recording) moved — bump Version.
func TestGoldenBytes(t *testing.T) {
	golden := []string{
		"0401000100",
		"0401fe0f80808080802000",
		"04010802fe95bff7dbd537",
		"040206070000",
		"040206078080808080808080800180890f",
		"04030409b960",
		"04040a0b008d42",
		"04040a0bb1d1f9d60322",
		"04050c0bb1d1f9d603",
		"04060e0c03",
		"0407100000",
		"0408000000",
		"040912000054a09c01cc9b01",
		"040a0405000000",
		"040a04058906030004010000001a80808080808080020000000000000000",
		"040a0c082a02aab4aed8c7bfce972f0c03aae13700000209aadcb4af0804c096b102",
		"040b080300a94600000000",
		"040b08030baa4680a4b8e6c6bfce972f80a4e80302e0c65b",
		"04040a0bb1d1f9d6030401aab4aed8c7bfce972f0a03aae1370180f104",
		"04050c0bb1d1f9d60302aab4aed8c7bfce972f0c08aab4aed8c7bfce972f000004808080808020aab4de750300",
	}
	msgs := sampleMsgs()
	if len(golden) != len(msgs) {
		t.Fatalf("%d golden rows for %d sample messages", len(golden), len(msgs))
	}
	for i, m := range msgs {
		if got := hex.EncodeToString(AppendMsg(nil, m)); got != golden[i] {
			t.Errorf("%+v encodes to\n  %s, golden\n  %s", m, got, golden[i])
		}
	}
}

// TestDecodeRejectsRetiredVersions: version bytes 1 to 3 named earlier
// layouts and get no special treatment — an otherwise valid payload
// relabelled with any of them is an unknown version like any other.
func TestDecodeRejectsRetiredVersions(t *testing.T) {
	for _, m := range sampleMsgs() {
		p := AppendMsg(nil, m)
		for _, v := range []byte{1, 2, 3} {
			p[0] = v
			if _, err := DecodeMsg(p); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown version %d", v)) {
				t.Fatalf("%+v relabelled v%d: err = %v, want unknown version", m, v, err)
			}
		}
	}
}

// TestRecordFreeFramesKeepV3Bytes: version 4 only adds the optional job
// section, so a frame without records is byte for byte its version 3
// encoding (these rows are the version 3 golden bytes) but for the
// leading version byte — what a run that moves no record puts on the
// wire does not grow.
func TestRecordFreeFramesKeepV3Bytes(t *testing.T) {
	v3 := []string{
		"0301000100",
		"0301fe0f80808080802000",
		"03010802fe95bff7dbd537",
		"030206070000",
		"030206078080808080808080800180890f",
		"03030409b960",
		"03040a0b008d42",
		"03040a0bb1d1f9d60322",
		"03050c0bb1d1f9d603",
		"03060e0c03",
		"0307100000",
		"0308000000",
		"030912000054a09c01cc9b01",
		"030a0405000000",
		"030a04058906030004010000001a80808080808080020000000000000000",
		"030a0c082a02aab4aed8c7bfce972f0c03aae13700000209aadcb4af0804c096b102",
		"030b080300a94600000000",
		"030b08030baa4680a4b8e6c6bfce972f80a4e80302e0c65b",
	}
	for i, m := range sampleMsgs()[:len(v3)] {
		got := hex.EncodeToString(AppendMsg(nil, m))
		if got[:2] != fmt.Sprintf("%02x", Version) || got[2:] != v3[i][2:] {
			t.Errorf("%+v encodes to\n  %s, version 3 was\n  %s", m, got, v3[i])
		}
	}
	// A rider stripped of its records is the record-free frame.
	for _, m := range riderMsgs() {
		bare := m
		bare.Jobs, bare.SentNS = nil, 0
		if p, q := AppendMsg(nil, m), AppendMsg(nil, bare); !bytes.HasPrefix(p, q) || len(m.Jobs) == 0 && len(p) != len(q) {
			t.Errorf("%v with %d records: %x does not extend the record-free %x", m.Kind, len(m.Jobs), p, q)
		}
	}
}

// TestJourneyFieldOverhead bounds what journey stamps cost: a fully
// stamped 16-record JobMove, as the serving path emits it mid-balancing,
// spends at most 32 marginal bytes per record over the same records
// unstamped (one zero byte per journey field, pinned by TestGoldenBytes).
func TestJourneyFieldOverhead(t *testing.T) {
	stamped := benchJourneyMsg(16)
	bare := stamped
	bare.SentNS = 0
	bare.Jobs = make([]JobRef, len(stamped.Jobs))
	for i, j := range stamped.Jobs {
		bare.Jobs[i] = JobRef{Origin: j.Origin, ID: j.ID}
	}
	marginal := EncodedSize(stamped) - EncodedSize(bare)
	if marginal <= 0 || marginal > 32*len(stamped.Jobs) {
		t.Fatalf("stamping %d records costs %d bytes, want in (0, %d]", len(stamped.Jobs), marginal, 32*len(stamped.Jobs))
	}
}

// TestJourneyDeltaCoding pins the point of delta-coding the ingest
// stamps: a freshly stamped record whose ingest is close to the frame's
// reference stamp costs a short varint, not nine bytes of unix nanos.
func TestJourneyDeltaCoding(t *testing.T) {
	now := int64(1_700_000_000_000_000_000)
	fresh := Msg{Kind: JobMove, From: 1, Seq: 2, SentNS: now, Jobs: []JobRef{
		{Origin: 1, ID: 7, IngestNS: now - 50_000}}} // ingested 50 µs ago
	bare := fresh
	bare.Jobs = []JobRef{{Origin: 1, ID: 7}}
	bare.SentNS = 0
	// The frame-level stamp costs its full width once; the per-record
	// delta (50 µs → 3-byte zigzag varint) plus two zero bytes must stay
	// well under a second full timestamp.
	perRec := len(AppendMsg(nil, fresh)) - len(AppendMsg(nil, bare)) - (uvarintLen(zig(now)) - 1)
	if perRec > 5 {
		t.Fatalf("freshly stamped record costs %d bytes over unstamped, want ≤5 (delta coding broken)", perRec)
	}
}

func TestReadFrameRejectsOversizedAndTruncated(t *testing.T) {
	// Length prefix claiming a payload beyond MaxPayload must fail
	// before the payload is read.
	big := []byte{0xff, 0xff, 0x03} // uvarint 65535
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(big))); err == nil ||
		!strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
	// Truncated payload: frame announces 10 bytes, stream has 3.
	trunc := append([]byte{10}, 1, 2, 3)
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(trunc))); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestKindString(t *testing.T) {
	for k := FreezeReq; k <= kindMax; k++ {
		if s := k.String(); strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if s := Kind(77).String(); s != "Kind(77)" {
		t.Fatalf("unknown kind prints %q", s)
	}
}

// transportPair exercises the Transport contract shared by both
// implementations: everything sent arrives intact, and the byte
// counters agree between sender and receiver.
func testTransportExchange(t *testing.T, a, b Transport, aID, bID int, framed bool) {
	t.Helper()
	msgs := sampleMsgs()
	for i, m := range msgs {
		m.From = aID
		m.Seq = uint64(i)
		if err := a.Send(bID, m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := range msgs {
		select {
		case m := <-b.Inbox():
			if m.From != aID || m.Seq != uint64(i) {
				t.Fatalf("msg %d arrived as %+v", i, m)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("msg %d never arrived", i)
		}
	}
	// Counters must agree. Every message has arrived, and a receiver
	// counts a frame before it reaches the inbox; only the sender's count
	// of frames a dialer wrote may still be pending.
	awaitLinkAccounting(a)
	sa, sb := a.Stats(), b.Stats()
	if sa.MsgsSent != int64(len(msgs)) || sb.MsgsRecv != int64(len(msgs)) ||
		sa.BytesSent != sb.BytesRecv || sa.BytesSent == 0 {
		t.Fatalf("counters disagree: a=%+v b=%+v", sa, sb)
	}
	// Framed transports carry at least one prefix byte per message.
	if framed && sa.BytesSent < int64(len(msgs)) {
		t.Fatalf("framed transport sent only %d bytes for %d messages", sa.BytesSent, len(msgs))
	}
}

// awaitLinkAccounting returns once the sends of tr that have reached
// their peer are counted. A TCP link's dialer writes the frames held
// while the link was down, and counts them and lowers the queue-depth
// gauge, all under the link's mutex: once the peer has read a frame,
// taking that mutex waits the accounting out. Other transports count a
// send before it is delivered.
func awaitLinkAccounting(tr Transport) {
	if tcp, ok := tr.(*TCP); ok {
		for _, l := range tcp.links {
			l.mu.Lock()
			l.mu.Unlock()
		}
	}
}

func TestLoopbackExchange(t *testing.T) {
	net := NewLoopback(2)
	a, b := net.Transport(0), net.Transport(1)
	defer a.Close()
	defer b.Close()
	testTransportExchange(t, a, b, 0, 1, false)
}

func TestLoopbackCloseSemantics(t *testing.T) {
	net := NewLoopback(2)
	a, b := net.Transport(0), net.Transport(1)
	b.Close()
	// Send to a closed peer: dropped, not an error (TCP-like).
	if err := a.Send(1, Msg{Kind: Quit, From: 0}); err != nil {
		t.Fatalf("send to closed peer errored: %v", err)
	}
	if s := a.Stats(); s.SendErrors == 0 {
		t.Fatal("drop to closed peer not counted")
	}
	a.Close()
	if err := a.Send(1, Msg{Kind: Quit, From: 0}); err == nil {
		t.Fatal("send from closed endpoint accepted")
	}
	if err := a.Send(9, Msg{Kind: Quit}); err == nil {
		t.Fatal("send to unknown node accepted")
	}
}

// TestPerPeerSendErrorAttribution: dropped sends are charged to the
// peer whose link dropped them, not smeared across the transport. The
// cluster's timeout-attribution logic reads PeerStats to distinguish
// "my protocol partner's link failed" from "some unrelated link
// failed"; a transport-wide-only count would misattribute unrelated
// trouble as link_down (see cluster.TestTimeoutAttributionPartnerLink).
func TestPerPeerSendErrorAttribution(t *testing.T) {
	net := NewLoopback(3)
	a, b, c := net.Transport(0), net.Transport(1), net.Transport(2)
	defer a.Close()
	defer c.Close()

	// A talks to the live peer 2, then to the dead peer 1, twice.
	b.Close()
	if err := a.Send(2, Msg{Kind: FreezeReq, From: 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := a.Send(1, Msg{Kind: FreezeReq, From: 0}); err != nil {
			t.Fatalf("drop to closed peer surfaced as error: %v", err)
		}
	}

	ps := Transport(a)
	if got := ps.PeerStats(1).SendErrors; got != 2 {
		t.Fatalf("dead peer 1 charged %d send errors, want 2", got)
	}
	if got := ps.PeerStats(2).SendErrors; got != 0 {
		t.Fatalf("live peer 2 charged %d send errors, want 0", got)
	}
	if got := a.Stats().SendErrors; got != 2 {
		t.Fatalf("transport-wide send errors %d, want 2", got)
	}
	// Unknown peers read as zero Stats, not a panic.
	if got := ps.PeerStats(99); got != (Stats{}) {
		t.Fatalf("unknown peer stats = %+v, want zero", got)
	}

	// The per-peer series is published to the registry under the same
	// attribution.
	reg := obs.NewRegistry()
	a.Register(reg)
	if got := reg.Counter(`wire_peer_send_errors_total{node="0",peer="1"}`).Value(); got != 2 {
		t.Fatalf("registry per-peer send-error metric = %d, want 2", got)
	}
}

func TestTCPExchange(t *testing.T) {
	ts, err := NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ts[0].Close()
	defer ts[1].Close()
	testTransportExchange(t, ts[0], ts[1], 0, 1, true)
	// And the reverse direction over its own connection.
	testTransportExchange(t, ts[1], ts[0], 1, 0, true)
}

func TestTCPDialRetry(t *testing.T) {
	// The peer's listener comes up *after* the first send: the dial
	// must retry until it lands.
	lnA, err := ListenTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()

	// Reserve an address for B, then close it so the port is free but
	// nothing is listening yet.
	tmp, err := ListenTCP(99, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	bAddr := tmp.Addr().String()
	tmp.Close()

	a, err := ListenTCP(0, "127.0.0.1:0", map[int]string{1: bAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	failed := make(chan struct{}, 1)
	a.dialFailed = func() {
		select {
		case failed <- struct{}{}:
		default:
		}
	}
	if err := a.Send(1, Msg{Kind: FreezeReq, From: 0, Seq: 5}); err != nil {
		t.Fatal(err)
	}

	select {
	case <-failed: // the dial has failed at least once
	case <-time.After(dialDeadline):
		t.Fatal("the dialer never tried the absent listener")
	}
	b, err := ListenTCP(1, bAddr, map[int]string{0: lnA.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	select {
	case m := <-b.Inbox():
		if m.Kind != FreezeReq || m.Seq != 5 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(dialDeadline):
		t.Fatal("message never arrived after late listener start")
	}
}

func TestTCPSendValidation(t *testing.T) {
	tp, err := ListenTCP(0, "127.0.0.1:0", map[int]string{1: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Send(0, Msg{Kind: Quit}); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := tp.Send(7, Msg{Kind: Quit}); err == nil {
		t.Fatal("send to unlisted peer accepted")
	}
	tp.Close()
	if err := tp.Send(1, Msg{Kind: Quit}); err == nil {
		t.Fatal("send on closed transport accepted")
	}
	// Close is idempotent.
	if err := tp.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestUvarintLen(t *testing.T) {
	for _, tc := range []struct {
		v uint64
		n int
	}{{0, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3}} {
		if got := uvarintLen(tc.v); got != tc.n {
			t.Errorf("uvarintLen(%d) = %d, want %d", tc.v, got, tc.n)
		}
	}
}

func ExampleAppendFrame() {
	frame := AppendFrame(nil, Msg{Kind: Transfer, From: 2, Seq: 1, Amount: -3})
	m, n, _ := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
	fmt.Println(m.Kind, m.Amount, n == len(frame))
	// Output: Transfer -3 true
}
