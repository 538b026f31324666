package wire

import (
	"bufio"
	"bytes"
	"math"
	"testing"
)

// FuzzWireRoundTrip drives the codec from both ends. The fuzz input is
// interpreted twice:
//
//  1. as message fields — every syntactically valid Msg (including its
//     op id and journey stamps) must survive encode→decode
//     unchanged, and its frame must read back identically through
//     ReadFrame — decoded in place in a default-sized reader, and
//     through a 16-byte reader most frames do not fit, which takes the
//     copying fallback;
//  2. as a raw byte stream — the decoder must reject or accept without
//     panicking, truncated and oversized frames must error, and any
//     stream the decoder accepts must re-encode to the same bytes
//     (canonical encoding).
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range sampleMsgs() {
		// Each sample seeds the raw direction twice: framed for the
		// readers, bare for DecodeMsg.
		for _, raw := range [][]byte{AppendFrame(nil, m), AppendMsg(nil, m)} {
			f.Add(byte(m.Kind), int64(m.From), m.Seq, m.Op, int64(m.Load), int64(m.Amount), m.Gen, m.Con, m.Job, raw)
		}
	}
	for _, c := range corruptPayloads() {
		f.Add(byte(0), int64(0), uint64(0), uint64(0), int64(0), int64(0), int64(0), int64(0), uint64(0), c.p)
	}
	f.Add(byte(0), int64(0), uint64(0), uint64(0), int64(0), int64(0), int64(0), int64(0), uint64(0), []byte{0xff, 0xff, 0x03, 0x00})
	// Transfers and TransferAcks with 0, 1 and MaxJobsPerMsg records at
	// worst-case widths: the scalars below derive them in direction 1,
	// and the encoded riders seed direction 2.
	for _, m := range riderMsgs() {
		f.Add(byte(m.Kind), int64(math.MinInt64), uint64(math.MaxUint64), uint64(math.MaxUint64), int64(0xff),
			int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), uint64(len(m.Jobs)), AppendFrame(nil, m))
	}
	f.Fuzz(func(t *testing.T, kind byte, from int64, seq, op uint64, load, amount, gen, con int64, job uint64, raw []byte) {
		// Direction 1: struct → bytes → struct.
		m := Msg{Kind: Kind(kind), From: int(from), Seq: seq, Op: op,
			Load: int(load), Amount: int(amount), Gen: gen, Con: con}
		if m.Kind.valid() {
			// Fields a kind does not carry are not encoded; zero them so
			// equality is meaningful. (Op travels on every message.)
			switch m.Kind {
			case FreezeAck:
				m.Amount, m.Gen, m.Con = 0, 0, 0
			case Bye:
				m.Amount = 0
			case Transfer, TransferAck, JobMove:
				// The record list is a slice, not a fuzz argument: derive a
				// deterministic one (0..MaxJobsPerMsg records, journey
				// stamps included) from the scalar inputs so the fuzzer
				// still steers its shape. Only a JobMove carries a send
				// stamp without records.
				if m.Kind != Transfer {
					m.Amount = 0
				}
				m.Load, m.Gen, m.Con = 0, 0, 0
				m.SentNS = gen
				for i := 0; i < int(job%(MaxJobsPerMsg+1)); i++ {
					m.Jobs = append(m.Jobs, JobRef{
						Origin: int(from) + i, ID: seq ^ uint64(i)*op,
						IngestNS:   gen - con*int64(i),
						Hops:       int(load) & 0xff,
						TransferNS: con ^ int64(i),
					})
				}
				if len(m.Jobs) == 0 && m.Kind != JobMove {
					m.SentNS = 0
				}
			case JobDone:
				m.Load, m.Amount, m.Gen, m.Con = 0, 0, 0, 0
				m.Job = job
				m.IngestNS, m.ConsumeNS = gen, con
				m.Hops, m.TransferNS = int(load)&0xff, gen^con
			default:
				m.Load, m.Amount, m.Gen, m.Con = 0, 0, 0, 0
			}
			p := AppendMsg(nil, m)
			if len(p) > MaxPayload {
				t.Fatalf("payload %d bytes > MaxPayload for %+v", len(p), m)
			}
			dm, err := DecodeMsg(p)
			if err != nil {
				t.Fatalf("decode of freshly encoded %+v: %v", m, err)
			}
			if !dm.Equal(m) {
				t.Fatalf("payload round trip: sent %+v got %+v", m, dm)
			}
			frame := AppendFrame(nil, m)
			for _, size := range []int{4096, 16} {
				fm, n, err := ReadFrame(bufio.NewReaderSize(bytes.NewReader(frame), size))
				if err != nil {
					t.Fatalf("read of freshly framed %+v (reader size %d): %v", m, size, err)
				}
				if !fm.Equal(m) || n != len(frame) {
					t.Fatalf("frame round trip (reader size %d): sent %+v got %+v (%d of %d bytes)", size, m, fm, n, len(frame))
				}
				// A truncated frame must never decode successfully.
				for cut := 1; cut < len(frame); cut++ {
					if _, _, err := ReadFrame(bufio.NewReaderSize(bytes.NewReader(frame[:cut]), size)); err == nil {
						t.Fatalf("truncated frame (%d of %d bytes, reader size %d) accepted", cut, len(frame), size)
					}
				}
			}
		}

		// Direction 2: arbitrary bytes through both decoders. Must not
		// panic; on success the encoding must be canonical.
		if dm, err := DecodeMsg(raw); err == nil {
			if re := AppendMsg(nil, dm); !bytes.Equal(re, raw) {
				t.Fatalf("non-canonical payload: %x decodes to %+v which re-encodes to %x", raw, dm, re)
			}
		}
		// Both readers must agree frame for frame on any byte stream.
		br, small := bufio.NewReader(bytes.NewReader(raw)), bufio.NewReaderSize(bytes.NewReader(raw), 16)
		for {
			m1, n1, err1 := ReadFrame(br)
			m2, n2, err2 := ReadFrame(small)
			if (err1 == nil) != (err2 == nil) || n1 != n2 || !m1.Equal(m2) {
				t.Fatalf("in-place and copying reads disagree on %x: %+v/%d/%v vs %+v/%d/%v", raw, m1, n1, err1, m2, n2, err2)
			}
			if err1 != nil {
				break
			}
		}
	})
}
