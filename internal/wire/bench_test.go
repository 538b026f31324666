package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// Codec microbenchmarks for use under a profiler: encode and decode of
// a representative protocol message mix, the journey-stamped job-record
// frames, and the full framed read path. The numbers with a bound are
// the ledger's (wire.encode_ns, wire.decode_ns, wire.jobmove16_*_ns,
// wire.allocs_per_frame: bash bench/run.sh --workload serve_firehose
// --trace 1).

// benchMsgs is the protocol mix of a balancing operation: the initiator
// round plus shutdown traffic.
var benchMsgs = []Msg{
	{Kind: FreezeReq, From: 3, Seq: 17},
	{Kind: FreezeAck, From: 9, Seq: 17, Load: 128},
	{Kind: Transfer, From: 3, Seq: 17, Amount: -42},
	{Kind: TransferAck, From: 9, Seq: 17},
	{Kind: Release, From: 3, Seq: 18},
	{Kind: Bye, From: 9, Load: 64, Gen: 100000, Con: 99936},
}

// benchJourneyMsg is a journey-stamped JobMove as the serving path
// emits it mid-balancing: a realistic record batch, fresh wall-clock
// stamps, small deltas.
func benchJourneyMsg(records int) Msg {
	now := int64(1_700_000_000_000_000_000)
	m := Msg{Kind: JobMove, From: 3, Seq: 17, Op: 0xdeadbeef, SentNS: now}
	for i := 0; i < records; i++ {
		m.Jobs = append(m.Jobs, JobRef{
			Origin: i % 8, ID: uint64(1000 + i),
			IngestNS:   now - int64(i+1)*300_000,
			Hops:       i % 3,
			TransferNS: int64(i) * 40_000,
		})
	}
	return m
}

func BenchmarkWireEncode(b *testing.B) {
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := benchMsgs[i%len(benchMsgs)]
		m.Op = 0xdeadbeef // typical in-flight op id
		buf = AppendMsg(buf[:0], m)
	}
	_ = buf
}

// BenchmarkWireEncodeNoOp is the same mix with no operation in flight
// (Op = 0, one byte).
func BenchmarkWireEncodeNoOp(b *testing.B) {
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendMsg(buf[:0], benchMsgs[i%len(benchMsgs)])
	}
	_ = buf
}

// BenchmarkWireEncodeJourney16 is the journey-stamped job path: one
// JobMove carrying 16 freshly stamped records.
func BenchmarkWireEncodeJourney16(b *testing.B) {
	m := benchJourneyMsg(16)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendMsg(buf[:0], m)
	}
	_ = buf
}

func BenchmarkWireDecode(b *testing.B) {
	ps := make([][]byte, len(benchMsgs))
	for i, m := range benchMsgs {
		ps[i] = AppendMsg(nil, m)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMsg(ps[i%len(ps)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeJourney16(b *testing.B) {
	p := AppendMsg(nil, benchJourneyMsg(16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMsg(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireReadFrame is the inbound hot path as TCP runs it: length
// prefix, payload, strict decode.
func BenchmarkWireReadFrame(b *testing.B) {
	var stream []byte
	for _, m := range benchMsgs {
		stream = AppendFrame(stream, m)
	}
	r := bytes.NewReader(stream)
	br := bufio.NewReader(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(benchMsgs) == 0 {
			r.Reset(stream)
			br.Reset(r)
		}
		if _, _, err := ReadFrame(br); err != nil {
			b.Fatal(err)
		}
	}
}
