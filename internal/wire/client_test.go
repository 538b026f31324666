package wire

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

func sampleCMsgs() []CMsg {
	return []CMsg{
		{Kind: CSubmit, Job: 0, Units: 1},
		{Kind: CSubmit, Job: 1 << 40, Units: 100},
		{Kind: CAccepted, Job: 7, Load: 0},
		{Kind: CAccepted, Job: 7, Load: 123456},
		{Kind: CDone, Job: 9, SubmitNS: 1700000000123456789, DoneNS: 1700000000987654321},
		{Kind: CDone, Job: 10, SubmitNS: -5, DoneNS: 0},
	}
}

func TestClientRoundTrip(t *testing.T) {
	var stream []byte
	msgs := sampleCMsgs()
	for _, m := range msgs {
		p := AppendCMsg(nil, m)
		if len(p) > MaxClientPayload {
			t.Fatalf("%+v encodes to %d bytes > MaxClientPayload", m, len(p))
		}
		dm, err := DecodeCMsg(p)
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if dm != m {
			t.Fatalf("round trip changed message: sent %+v got %+v", m, dm)
		}
		stream = AppendCFrame(stream, m)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	total := 0
	for i, want := range msgs {
		m, n, err := ReadCFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m != want {
			t.Fatalf("frame %d: sent %+v got %+v", i, want, m)
		}
		total += n
	}
	if total != len(stream) {
		t.Fatalf("frames consumed %d bytes, stream has %d", total, len(stream))
	}
	if _, _, err := ReadCFrame(br); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestClientDecodeRejectsCorruptPayloads(t *testing.T) {
	good := AppendCMsg(nil, CMsg{Kind: CDone, Job: 3, SubmitNS: 100, DoneNS: 250})
	cases := map[string][]byte{
		"empty":            {},
		"version only":     {Version},
		"bad version":      append([]byte{Version + 1}, good[1:]...),
		"bad kind":         {Version, 0xee, 0x02},
		"kind zero":        {Version, 0x00, 0x02},
		"truncated varint": good[:len(good)-1],
		"trailing bytes":   append(append([]byte{}, good...), 0x00),
		"oversized":        make([]byte, MaxClientPayload+1),
	}
	for name, p := range cases {
		if _, err := DecodeCMsg(p); err == nil {
			t.Errorf("%s: decode accepted %x", name, p)
		}
	}
}

func TestClientReadFrameRejectsOversizedAndTruncated(t *testing.T) {
	big := []byte{0xff, 0xff, 0x03} // uvarint 65535
	if _, _, err := ReadCFrame(bufio.NewReader(bytes.NewReader(big))); err == nil ||
		!strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("oversized client frame accepted: %v", err)
	}
	trunc := append([]byte{10}, 1, 2, 3)
	if _, _, err := ReadCFrame(bufio.NewReader(bytes.NewReader(trunc))); err == nil {
		t.Fatal("truncated client frame accepted")
	}
}

func TestCKindString(t *testing.T) {
	for k := CSubmit; k <= cKindMax; k++ {
		if s := k.String(); strings.HasPrefix(s, "CKind(") {
			t.Fatalf("client kind %d has no name", k)
		}
	}
	if s := CKind(77).String(); s != "CKind(77)" {
		t.Fatalf("unknown client kind prints %q", s)
	}
}

// TestJobMovePayloadBudget pins that a maximal job section — MaxJobsPerMsg
// records with worst-case varint widths, on a JobMove or riding a
// Transfer or TransferAck (riderMsgs) — still fits in MaxPayload, so the
// encoder's frame scratch and the decoder's size gate can never reject
// a legal message, and that one record over the cap panics the encoder.
func TestJobMovePayloadBudget(t *testing.T) {
	m := Msg{Kind: JobMove, From: -1 << 62, Seq: 1 << 62, Op: 1 << 62}
	for i := 0; i < MaxJobsPerMsg; i++ {
		m.Jobs = append(m.Jobs, JobRef{Origin: -1 << 62, ID: 1<<64 - 1})
	}
	for _, m := range append(riderMsgs(), m) {
		if len(m.Jobs) != MaxJobsPerMsg {
			continue
		}
		if n := EncodedSize(m); n > MaxPayload {
			t.Fatalf("worst-case %v is %d bytes > MaxPayload %d", m.Kind, n, MaxPayload)
		}
		dm, err := DecodeMsg(AppendMsg(nil, m))
		if err != nil {
			t.Fatalf("worst-case %v decode: %v", m.Kind, err)
		}
		if !dm.Equal(m) {
			t.Fatalf("worst-case %v round trip changed message", m.Kind)
		}
		m.Jobs = append(m.Jobs, JobRef{})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("encoder accepted a %v over MaxJobsPerMsg", m.Kind)
				}
			}()
			AppendMsg(nil, m)
		}()
	}
}
