package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
)

// Client codec: the frames exchanged between a job-submitting client
// and a node's serving front-end (internal/serve). It shares the
// version byte and varint discipline with the cluster codec but is a
// separate kind space — client connections and cluster links never mix
// on one socket, so the two families cannot collide.
//
//	frame   := uvarint(len(payload)) payload
//	payload := version(1B) kind(1B) uvarint(job) extras
//
// where job is the client's own tag for the submission (echoed on every
// reply about it) and extras depend on the kind:
//
//	CSubmit    uvarint(units)                      service demand in unit packets
//	CAccepted  zigzag(load)                        accepting server's in-flight unit count
//	CDone      zigzag(submitNS) zigzag(doneNS)     server-clock unix-nano stamps
//
// The decoder is strict like DecodeMsg: known version and kind, minimal
// varints, no trailing bytes.

// CKind discriminates client-protocol messages.
type CKind uint8

// The client protocol: a client submits a job (CSubmit) with its
// service demand in unit packets; the serving node acknowledges with
// CAccepted carrying the server's post-accept in-flight unit count (a
// two-choice client could use it as a signal); and when the last of the job's units has been
// consumed — on any node, after any number of balancing migrations —
// the accepting node streams back CDone with both server-side
// timestamps, so the client can compute the server-observed sojourn
// without trusting clock sync.
const (
	CSubmit CKind = 1 + iota
	CAccepted
	CDone
)

const cKindMax = CDone

var cKindNames = [...]string{
	CSubmit:   "CSubmit",
	CAccepted: "CAccepted",
	CDone:     "CDone",
}

func (k CKind) String() string {
	if k >= 1 && k <= cKindMax {
		return cKindNames[k]
	}
	return fmt.Sprintf("CKind(%d)", uint8(k))
}

func (k CKind) valid() bool { return k >= 1 && k <= cKindMax }

// MaxClientPayload caps client payloads. Every client frame is a few
// varints; anything larger is a framing error.
const MaxClientPayload = 64

// CMsg is one client-protocol message. Which fields are meaningful
// depends on Kind; fields a kind does not carry are not encoded and
// decode as zero.
type CMsg struct {
	Kind     CKind
	Job      uint64 // client's tag for the submission, echoed on replies
	Units    int    // CSubmit: service demand in unit packets
	Load     int    // CAccepted: accepting server's in-flight units after accept
	SubmitNS int64  // CDone: server clock at ingest (unix nanoseconds)
	DoneNS   int64  // CDone: server clock at last-unit completion
}

// AppendCMsg appends m's encoded payload (no frame prefix) to buf.
func AppendCMsg(buf []byte, m CMsg) []byte {
	buf = append(buf, Version, byte(m.Kind))
	buf = binary.AppendUvarint(buf, m.Job)
	switch m.Kind {
	case CSubmit:
		buf = binary.AppendUvarint(buf, uint64(m.Units))
	case CAccepted:
		buf = binary.AppendUvarint(buf, zig(int64(m.Load)))
	case CDone:
		buf = binary.AppendUvarint(buf, zig(m.SubmitNS))
		buf = binary.AppendUvarint(buf, zig(m.DoneNS))
	}
	return buf
}

// AppendCFrame appends m as a complete frame (length prefix + payload).
func AppendCFrame(buf []byte, m CMsg) []byte {
	var scratch [MaxClientPayload]byte
	p := AppendCMsg(scratch[:0], m)
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	return append(buf, p...)
}

// DecodeCMsg parses one client payload, with the same strictness as
// DecodeMsg: known version and kind, minimal varints, no trailing bytes.
func DecodeCMsg(p []byte) (CMsg, error) {
	var m CMsg
	if len(p) > MaxClientPayload {
		return m, fmt.Errorf("wire: client payload %d bytes exceeds max %d", len(p), MaxClientPayload)
	}
	if len(p) < 2 {
		return m, fmt.Errorf("wire: client payload truncated (%d bytes)", len(p))
	}
	if p[0] != Version {
		return m, fmt.Errorf("wire: unknown client version %d", p[0])
	}
	m.Kind = CKind(p[1])
	if !m.Kind.valid() {
		return m, fmt.Errorf("wire: unknown client kind %d", p[1])
	}
	rest := p[2:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("wire: truncated varint in %v payload", m.Kind)
		}
		if n != uvarintLen(v) {
			return 0, fmt.Errorf("wire: non-minimal varint in %v payload", m.Kind)
		}
		rest = rest[n:]
		return v, nil
	}
	var err error
	if m.Job, err = next(); err != nil {
		return m, err
	}
	var v uint64
	switch m.Kind {
	case CSubmit:
		if v, err = next(); err != nil {
			return m, err
		}
		m.Units = int(v)
	case CAccepted:
		if v, err = next(); err != nil {
			return m, err
		}
		m.Load = int(unzig(v))
	case CDone:
		if v, err = next(); err != nil {
			return m, err
		}
		m.SubmitNS = unzig(v)
		if v, err = next(); err != nil {
			return m, err
		}
		m.DoneNS = unzig(v)
	}
	if len(rest) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes after %v payload", len(rest), m.Kind)
	}
	return m, nil
}

// ReadCFrame reads one client frame from br and decodes its payload in
// place (see peekPayload). Like ReadFrame it returns the total frame
// bytes consumed; the size prefix is validated before any payload is
// read.
func ReadCFrame(br *bufio.Reader) (CMsg, int, error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return CMsg{}, 0, err
	}
	if size > MaxClientPayload {
		return CMsg{}, 0, fmt.Errorf("wire: client frame size %d exceeds max %d", size, MaxClientPayload)
	}
	p, discard, err := peekPayload(br, int(size))
	if err != nil {
		return CMsg{}, 0, fmt.Errorf("wire: short client frame: %w", err)
	}
	m, err := DecodeCMsg(p)
	br.Discard(discard)
	if err != nil {
		return CMsg{}, 0, err
	}
	return m, uvarintLen(size) + int(size), nil
}
