package flight

import (
	"encoding/binary"
	"fmt"

	"lmbalance/internal/wire"
)

// FormatVersion is the segment container version. It versions the
// header, the record framing and what a stream holds: since version 2 a
// node records each received frame where it processes it, its ingests,
// and the trigger factor on every initiate — what re-executing the
// stream needs. Version 1 streams recorded receives ahead of processing
// and cannot be re-executed, so the reader refuses them by name. The
// header's codec byte says which wire codec the embedded payloads were
// recorded under, and the reader refuses a segment whose codec is not
// wire.Version before decoding a record.
const FormatVersion = 2

// magic leads every segment file.
var magic = [4]byte{'L', 'B', 'F', 'R'}

// maxRecordBody caps one record's encoded body: a wire payload at its
// own maximum plus the record envelope. A length prefix beyond this is
// corruption, never allocated.
const maxRecordBody = wire.MaxPayload + 64

// Event is one decoded flight record: a frame this node sent or
// received, or a local protocol decision. Node and Seq are assigned by
// the reader (Seq is the record's position in the node's stream, in
// recording order across segments); WallNS is the driver's clock when
// the node acted (unix ns on a live node, the virtual tick under netsim).
type Event struct {
	Node   int
	Seq    int
	WallNS int64
	Dir    Dir

	// Peer is the destination of a DirSend (the source of a DirRecv is
	// Msg.From); -1 for local records.
	Peer int
	// Msg is the frame (DirSend / DirRecv only).
	Msg wire.Msg

	// Local decision (DirLocal only).
	Kind LocalKind
	Op   uint64
	Args []int64
}

// Arg returns Args[i], or 0 when the record carries fewer arguments,
// so a short hand-written or corrupt record cannot make replay index
// past its end.
func (e *Event) Arg(i int) int64 {
	if i < len(e.Args) {
		return e.Args[i]
	}
	return 0
}

func zig(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// segHeader is a segment file's decoded header.
type segHeader struct {
	node      int
	seq       uint64
	wallRefNS int64
	codec     byte
}

// appendHeader encodes a segment header.
func appendHeader(buf []byte, h segHeader) []byte {
	buf = append(buf, magic[:]...)
	buf = append(buf, FormatVersion)
	buf = binary.AppendUvarint(buf, zig(int64(h.node)))
	buf = binary.AppendUvarint(buf, h.seq)
	buf = binary.AppendUvarint(buf, zig(h.wallRefNS))
	return append(buf, h.codec)
}

// decodeHeader parses a segment header, returning the header and the
// number of bytes it consumed.
func decodeHeader(p []byte) (segHeader, int, error) {
	var h segHeader
	if len(p) < len(magic)+2 {
		return h, 0, fmt.Errorf("flight: segment shorter than its header")
	}
	if [4]byte(p[:4]) != magic {
		return h, 0, fmt.Errorf("flight: bad segment magic %q", p[:4])
	}
	if p[4] != FormatVersion {
		return h, 0, fmt.Errorf("flight: segment format v%d, this reader decodes only v%d", p[4], FormatVersion)
	}
	off := len(magic) + 1
	var v [3]uint64 // node, segseq, wallRefNS
	for k := range v {
		var n int
		if v[k], n = binary.Uvarint(p[off:]); n <= 0 {
			return h, 0, fmt.Errorf("flight: truncated segment header")
		}
		off += n
	}
	if off >= len(p) {
		return h, 0, fmt.Errorf("flight: truncated segment header")
	}
	h = segHeader{node: int(unzig(v[0])), seq: v[1], wallRefNS: unzig(v[2]), codec: p[off]}
	return h, off + 1, nil
}

// appendTailSend encodes a DirSend tail: destination peer + payload.
func appendTailSend(buf []byte, to int, m wire.Msg) []byte {
	buf = binary.AppendUvarint(buf, zig(int64(to)))
	return wire.AppendMsg(buf, m)
}

// appendTailLocal encodes a DirLocal tail.
func appendTailLocal(buf []byte, kind LocalKind, op uint64, args []int64) []byte {
	buf = append(buf, byte(kind))
	buf = binary.AppendUvarint(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(args)))
	for _, a := range args {
		buf = binary.AppendUvarint(buf, zig(a))
	}
	return buf
}

// appendRecord frames one record body (dir + wall delta + tail) with
// its length prefix.
func appendRecord(buf []byte, dir Dir, dWallNS int64, tail []byte) []byte {
	var hdr [12]byte
	n := 1
	hdr[0] = byte(dir)
	n += binary.PutUvarint(hdr[n:], zig(dWallNS))
	buf = binary.AppendUvarint(buf, uint64(n+len(tail)))
	buf = append(buf, hdr[:n]...)
	return append(buf, tail...)
}

// decodeRecord parses one record body into ev (Node/Seq left to the
// caller). prevWall is the previous record's stamp for delta decoding.
func decodeRecord(body []byte, prevWall int64, ev *Event) error {
	if len(body) < 2 {
		return fmt.Errorf("flight: record body truncated (%d bytes)", len(body))
	}
	ev.Dir = Dir(body[0])
	rest := body[1:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("flight: truncated varint in record")
		}
		rest = rest[n:]
		return v, nil
	}
	v, err := next()
	if err != nil {
		return err
	}
	ev.WallNS = prevWall + unzig(v)
	ev.Peer = -1
	switch ev.Dir {
	case DirSend:
		if v, err = next(); err != nil {
			return err
		}
		ev.Peer = int(unzig(v))
		if ev.Msg, err = wire.DecodeMsg(rest); err != nil {
			return fmt.Errorf("flight: send payload: %w", err)
		}
	case DirRecv:
		if ev.Msg, err = wire.DecodeMsg(rest); err != nil {
			return fmt.Errorf("flight: recv payload: %w", err)
		}
		ev.Peer = ev.Msg.From
	case DirLocal:
		if len(rest) < 1 {
			return fmt.Errorf("flight: local record truncated")
		}
		if ev.Kind = LocalKind(rest[0]); !ev.Kind.known() {
			return fmt.Errorf("flight: local record of unknown kind %d", rest[0])
		}
		rest = rest[1:]
		if ev.Op, err = next(); err != nil {
			return err
		}
		var count uint64
		if count, err = next(); err != nil {
			return err
		}
		if count > 64 {
			return fmt.Errorf("flight: local record with %d args", count)
		}
		ev.Args = make([]int64, count)
		for i := range ev.Args {
			if v, err = next(); err != nil {
				return err
			}
			ev.Args[i] = unzig(v)
		}
		if len(rest) != 0 {
			return fmt.Errorf("flight: %d trailing bytes in local record", len(rest))
		}
	default:
		return fmt.Errorf("flight: unknown record dir %d", body[0])
	}
	return nil
}
