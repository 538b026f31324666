// Package wire is the wire-level message layer of the cluster runtime:
// a length-prefixed binary codec for the balancing protocol's messages
// and a Transport abstraction with two implementations — an in-memory
// loopback for tests and experiments, and real TCP for deployment.
//
// # Frame layout
//
// Every message travels as one frame:
//
//	frame   := uvarint(len(payload)) payload
//	payload := version(1B) kind(1B) zigzag(from) uvarint(seq) uvarint(op) extras
//
// where extras depend on the kind:
//
//	FreezeAck   zigzag(load)                       partner's current load
//	Transfer    zigzag(amount) [jobs]              signed load delta, and the
//	                                               records of the load it moves
//	TransferAck [jobs]                             the records of a give-back
//	Bye         zigzag(load) zigzag(gen) zigzag(con)  final accounting
//	JobMove     jobs, count 0 allowed              job records with no frame
//	                                               of their own to ride
//	JobDone     uvarint(job) zigzag(consumeNS)
//	            zigzag(consumeNS−ingestNS) uvarint(hops) zigzag(transferNS)
//	                                               one job unit completed; sent
//	                                               to the job's origin node
//	(all other kinds carry no extras)
//
//	jobs := uvarint(count) zigzag(sentNS)
//	        count×{zigzag(origin) uvarint(id)
//	               zigzag(sentNS−ingestNS) uvarint(hops) zigzag(transferNS)}
//
// The job section of a Transfer or TransferAck is optional: present,
// with count ≥ 1, only when records ride the frame, so a record-free
// frame is as long as it was before records could ride and every
// message keeps one encoding.
//
// Varints are the standard LEB128 base-128 encoding (encoding/binary);
// signed fields use zigzag so small magnitudes of either sign stay short.
// A freeze request is 6 bytes on the wire, a typical transfer 7–9 — the
// paper's point that balancing cost is organization, not data volume,
// measured in actual bytes.
//
// # Versioning
//
// One version byte (Version) leads every payload, and a payload whose
// first byte is anything else is a decode error — incompatible peers
// fail loudly at the first frame rather than corrupting state. There is
// one layout: when it changes, bump Version.
//
// Every message carries the op field: a 64-bit operation id minted by
// the initiator of a balancing operation and echoed on every message of
// that operation, so one operation's freeze→collect→transfer→ack→release
// timeline can be read across processes out of the nodes' flight
// recordings (see internal/flight). Job records carry journey stamps: a
// job section carries the sender's send timestamp and each record its
// origin ingest time (delta-coded against the send stamp), hop count,
// and accumulated in-flight transfer time; a JobDone carries the same
// journey fields plus the consuming node's consume timestamp, so the
// origin can decompose a unit's sojourn into queue-wait / transfer /
// service components (see internal/serve). An unstamped record pays one
// zero byte per journey field; a fully stamped one stays within 32
// bytes (see TestJourneyFieldOverhead).
//
// Payloads are capped at MaxPayload; a decoder rejects oversized frames
// before allocating, so a corrupt or adversarial length prefix cannot
// balloon memory. Truncated payloads, unknown versions/kinds, and
// trailing garbage are all decode errors.
//
// # Byte accounting
//
// Both transports count every message and byte they move (Stats), in
// total and per peer (PeerStats), on atomic obs counters safe to bump
// from sending and reader goroutines and to snapshot from anywhere. The
// loopback transport still runs each message through the codec — what it
// counts is exactly what TCP would have to say, minus the frame's length
// prefix — so an inproc/TCP comparison isolates true wire overhead.
// Register attaches the live counters (including the TCP held-frame
// depth gauge) to an obs.Registry for the /metrics debug endpoint.
package wire

import (
	"encoding/binary"
	"fmt"

	"lmbalance/internal/obs"
)

// Version is the codec version; it leads every payload so incompatible
// peers fail loudly at the first frame rather than corrupting state.
// The decoder accepts no other. Version 4 lets a Transfer or TransferAck
// carry a job section; a version 3 payload is an unknown version.
const Version = 4

// MaxPayload caps the encoded payload size. The largest legal payload
// is a frame carrying MaxJobsPerMsg records with maximal varints (five
// per record with the journey stamps) — a JobMove, or a Transfer whose
// amount field adds one more varint — which fits with room to spare;
// anything larger is a framing error.
const MaxPayload = 8192

// MaxJobsPerMsg caps the job records carried by one frame. A payment
// larger than this goes out in several batches: all but the last as
// JobMoves, and the last on the Transfer or TransferAck it rides, each
// under MaxPayload even with worst-case varint widths.
const MaxJobsPerMsg = 96

// Kind discriminates protocol messages.
type Kind uint8

// The protocol messages. FreezeReq..Release are the balancing protocol
// itself (netsim's freeze/ack/transfer state machine); TransferAck makes
// transfers confirmable so a node knows when its sends have landed; and
// Idle/Quit/Bye are the two-phase quiescent shutdown: nodes report Idle
// to the coordinator when done stepping and quiet, the coordinator
// broadcasts Quit once everyone has, and each node answers Bye with its
// final load accounting. JobMove/JobDone are the serving front-end's
// job-record plumbing: a JobMove carries job records that no Transfer
// or TransferAck of the moment is going to the same peer to carry, and
// a JobDone routes one completed unit back to the job's origin node.
const (
	FreezeReq Kind = 1 + iota
	FreezeAck
	FreezeBusy
	Transfer
	TransferAck
	Release
	Idle
	Quit
	Bye
	JobMove
	JobDone
)

const kindMax = JobDone

var kindNames = [...]string{
	FreezeReq:   "FreezeReq",
	FreezeAck:   "FreezeAck",
	FreezeBusy:  "FreezeBusy",
	Transfer:    "Transfer",
	TransferAck: "TransferAck",
	Release:     "Release",
	Idle:        "Idle",
	Quit:        "Quit",
	Bye:         "Bye",
	JobMove:     "JobMove",
	JobDone:     "JobDone",
}

func (k Kind) String() string {
	if k >= 1 && k <= kindMax {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

func (k Kind) valid() bool { return k >= 1 && k <= kindMax }

// JobRef names one in-flight serving job: the node that accepted it
// from a client (Origin) and that node's locally unique id for it. One
// JobRef accompanies each unit of a job's remaining work, so records
// migrate with the load they account for. The journey stamps travel
// with the record: when it ingested at the origin, how many hops
// between nodes it has taken, and how long it has spent in flight between nodes
// (accumulated receive−send per hop). All-zero stamps mean
// "unstamped", not "instantaneous".
type JobRef struct {
	Origin     int
	ID         uint64
	IngestNS   int64 // origin's ingest wall clock, unix nanos
	Hops       int   // hops between nodes taken so far
	TransferNS int64 // accumulated wire in-flight time, nanos
}

// Msg is one protocol message. Which fields are meaningful depends on
// Kind (see the frame layout in the package comment); fields a kind does
// not carry are not encoded and decode as zero.
//
// Msg is not comparable with == (Jobs is a slice); use Equal.
type Msg struct {
	Kind   Kind
	From   int      // sender's node id
	Seq    uint64   // sender's protocol epoch; replies and releases echo it
	Op     uint64   // balancing-operation id (0 = none); echoed by every reply
	Load   int      // FreezeAck: partner load; Bye: final load
	Amount int      // Transfer: signed load delta
	Gen    int64    // Bye: lifetime generated count
	Con    int64    // Bye: lifetime consumed count
	Job    uint64   // JobDone: origin-local id of the job a unit completed for
	Jobs   []JobRef // JobMove, Transfer, TransferAck: job records on board

	// Journey stamps. SentNS is the sender's wall clock at send time on
	// a frame with a job section, the reference the per-record ingest
	// deltas are coded against and the receiver's basis for the hop's
	// in-flight time. The remaining four describe the one unit a
	// JobDone completes.
	SentNS     int64 // job section: sender's send wall clock, unix nanos
	IngestNS   int64 // JobDone: unit's origin ingest wall clock
	ConsumeNS  int64 // JobDone: consuming node's consume wall clock
	Hops       int   // JobDone: hops the unit's record took
	TransferNS int64 // JobDone: unit's accumulated in-flight nanos
}

// Equal reports whether two messages are field-for-field identical,
// comparing Jobs element-wise (nil and empty are equal — both encode as
// no records).
func (m Msg) Equal(o Msg) bool {
	if m.Kind != o.Kind || m.From != o.From || m.Seq != o.Seq || m.Op != o.Op ||
		m.Load != o.Load || m.Amount != o.Amount || m.Gen != o.Gen || m.Con != o.Con ||
		m.Job != o.Job || len(m.Jobs) != len(o.Jobs) ||
		m.SentNS != o.SentNS || m.IngestNS != o.IngestNS || m.ConsumeNS != o.ConsumeNS ||
		m.Hops != o.Hops || m.TransferNS != o.TransferNS {
		return false
	}
	for i := range m.Jobs {
		if m.Jobs[i] != o.Jobs[i] {
			return false
		}
	}
	return true
}

func zig(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendMsg appends m's encoded payload (no frame prefix) to buf and
// returns the extended slice.
func AppendMsg(buf []byte, m Msg) []byte {
	buf = append(buf, Version, byte(m.Kind))
	buf = binary.AppendUvarint(buf, zig(int64(m.From)))
	buf = binary.AppendUvarint(buf, m.Seq)
	buf = binary.AppendUvarint(buf, m.Op)
	return appendExtras(buf, m)
}

// appendExtras appends the kind-dependent tail fields. Ingest times
// are delta-coded against the frame's reference stamp (SentNS on a job
// section, ConsumeNS on a JobDone) so a record freshly stamped with
// real wall clocks costs a short varint, not nine bytes of unix nanos.
func appendExtras(buf []byte, m Msg) []byte {
	switch m.Kind {
	case FreezeAck:
		buf = binary.AppendUvarint(buf, zig(int64(m.Load)))
	case Transfer:
		buf = binary.AppendUvarint(buf, zig(int64(m.Amount)))
		if len(m.Jobs) > 0 {
			buf = appendJobs(buf, m)
		}
	case TransferAck:
		if len(m.Jobs) > 0 {
			buf = appendJobs(buf, m)
		}
	case Bye:
		buf = binary.AppendUvarint(buf, zig(int64(m.Load)))
		buf = binary.AppendUvarint(buf, zig(m.Gen))
		buf = binary.AppendUvarint(buf, zig(m.Con))
	case JobMove:
		buf = appendJobs(buf, m)
	case JobDone:
		buf = binary.AppendUvarint(buf, m.Job)
		buf = binary.AppendUvarint(buf, zig(m.ConsumeNS))
		buf = binary.AppendUvarint(buf, zig(m.ConsumeNS-m.IngestNS))
		buf = binary.AppendUvarint(buf, uint64(m.Hops))
		buf = binary.AppendUvarint(buf, zig(m.TransferNS))
	}
	return buf
}

// appendJobs appends m's job section: the record count, the send stamp
// and the records.
func appendJobs(buf []byte, m Msg) []byte {
	if len(m.Jobs) > MaxJobsPerMsg {
		panic(fmt.Sprintf("wire: %v with %d records exceeds MaxJobsPerMsg=%d", m.Kind, len(m.Jobs), MaxJobsPerMsg))
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Jobs)))
	buf = binary.AppendUvarint(buf, zig(m.SentNS))
	for _, j := range m.Jobs {
		buf = binary.AppendUvarint(buf, zig(int64(j.Origin)))
		buf = binary.AppendUvarint(buf, j.ID)
		buf = binary.AppendUvarint(buf, zig(m.SentNS-j.IngestNS))
		buf = binary.AppendUvarint(buf, uint64(j.Hops))
		buf = binary.AppendUvarint(buf, zig(j.TransferNS))
	}
	return buf
}

// AppendFrame appends m as a complete frame (length prefix + payload)
// to buf and returns the extended slice.
func AppendFrame(buf []byte, m Msg) []byte {
	// Payloads are tiny (≤ MaxPayload), so encode into a stack scratch
	// first; the length prefix needs the payload size.
	var scratch [MaxPayload]byte
	p := AppendMsg(scratch[:0], m)
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	return append(buf, p...)
}

// DecodeMsg parses one payload. It is strict: version and kind must be
// known, every varint well-formed (and minimal), and no bytes may trail
// the message.
func DecodeMsg(p []byte) (Msg, error) {
	var m Msg
	if len(p) > MaxPayload {
		return m, fmt.Errorf("wire: payload %d bytes exceeds max %d", len(p), MaxPayload)
	}
	if len(p) < 2 {
		return m, fmt.Errorf("wire: payload truncated (%d bytes)", len(p))
	}
	if p[0] != Version {
		return m, fmt.Errorf("wire: unknown version %d", p[0])
	}
	m.Kind = Kind(p[1])
	if !m.Kind.valid() {
		return m, fmt.Errorf("wire: unknown kind %d", p[1])
	}
	rest := p[2:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("wire: truncated varint in %v payload", m.Kind)
		}
		if n != uvarintLen(v) {
			// Reject non-minimal encodings so every message has exactly
			// one byte representation on the wire.
			return 0, fmt.Errorf("wire: non-minimal varint in %v payload", m.Kind)
		}
		rest = rest[n:]
		return v, nil
	}
	v, err := next()
	if err != nil {
		return m, err
	}
	m.From = int(unzig(v))
	if m.Seq, err = next(); err != nil {
		return m, err
	}
	if m.Op, err = next(); err != nil {
		return m, err
	}
	// jobs decodes a job section. Where the section is optional a count
	// of 0 is refused, so that the message has one encoding.
	jobs := func(optional bool) error {
		count, err := next()
		if err != nil {
			return err
		}
		if count > MaxJobsPerMsg {
			return fmt.Errorf("wire: %v with %d records exceeds max %d", m.Kind, count, MaxJobsPerMsg)
		}
		if count == 0 && optional {
			return fmt.Errorf("wire: %v with an empty job section", m.Kind)
		}
		if v, err = next(); err != nil {
			return err
		}
		m.SentNS = unzig(v)
		if count == 0 {
			return nil
		}
		m.Jobs = make([]JobRef, count)
		for i := range m.Jobs {
			if v, err = next(); err != nil {
				return err
			}
			m.Jobs[i].Origin = int(unzig(v))
			if m.Jobs[i].ID, err = next(); err != nil {
				return err
			}
			if v, err = next(); err != nil {
				return err
			}
			m.Jobs[i].IngestNS = m.SentNS - unzig(v)
			if v, err = next(); err != nil {
				return err
			}
			m.Jobs[i].Hops = int(v)
			if v, err = next(); err != nil {
				return err
			}
			m.Jobs[i].TransferNS = unzig(v)
		}
		return nil
	}
	switch m.Kind {
	case FreezeAck:
		if v, err = next(); err != nil {
			return m, err
		}
		m.Load = int(unzig(v))
	case Transfer:
		if v, err = next(); err != nil {
			return m, err
		}
		m.Amount = int(unzig(v))
		if len(rest) > 0 {
			if err = jobs(true); err != nil {
				return m, err
			}
		}
	case TransferAck:
		if len(rest) > 0 {
			if err = jobs(true); err != nil {
				return m, err
			}
		}
	case Bye:
		if v, err = next(); err != nil {
			return m, err
		}
		m.Load = int(unzig(v))
		if v, err = next(); err != nil {
			return m, err
		}
		m.Gen = unzig(v)
		if v, err = next(); err != nil {
			return m, err
		}
		m.Con = unzig(v)
	case JobMove:
		if err = jobs(false); err != nil {
			return m, err
		}
	case JobDone:
		if m.Job, err = next(); err != nil {
			return m, err
		}
		if v, err = next(); err != nil {
			return m, err
		}
		m.ConsumeNS = unzig(v)
		if v, err = next(); err != nil {
			return m, err
		}
		m.IngestNS = m.ConsumeNS - unzig(v)
		if v, err = next(); err != nil {
			return m, err
		}
		m.Hops = int(v)
		if v, err = next(); err != nil {
			return m, err
		}
		m.TransferNS = unzig(v)
	}
	if len(rest) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes after %v payload", len(rest), m.Kind)
	}
	return m, nil
}

// EncodedSize returns the payload size of m (without the frame prefix).
func EncodedSize(m Msg) int {
	var scratch [MaxPayload]byte
	return len(AppendMsg(scratch[:0], m))
}

// Stats are a transport's cumulative traffic counters. Loopback byte
// counts are payload bytes; TCP byte counts are frame bytes as written
// to / read from the socket (payload + length prefix).
type Stats struct {
	MsgsSent   int64
	MsgsRecv   int64
	BytesSent  int64
	BytesRecv  int64
	SendErrors int64 // messages dropped after exhausting delivery attempts
	Redials    int64 // connections re-established after a failure
}

// PeerStatser is a Transport's per-peer accounting view, the part of the
// interface consumers that attribute traffic or failures to one link
// (e.g. the cluster's link_down abort classification) rely on.
type PeerStatser interface {
	// PeerStats snapshots the traffic exchanged with one peer,
	// including the send errors on this node's link *to* that peer
	// (zero Stats for an unknown peer; Redials stay transport-wide).
	PeerStats(id int) Stats
}

// Transport moves protocol messages between the nodes of one cluster.
// Send hands a message to the medium on the caller's goroutine: it may
// block while the peer's socket or inbox buffer is full, so a caller
// that blocks in Send is not draining its own Inbox meanwhile; Inbox
// delivers every message addressed to this node. All
// methods are safe for concurrent use, but a Transport is owned by one
// node: only that node calls Send and reads Inbox.
type Transport interface {
	// Send delivers m to peer `to`. It returns an error only if the
	// transport is closed or the destination is invalid; delivery
	// failures on an open transport are counted in Stats, not returned,
	// mirroring a real network's fire-and-forget datagram to a peer
	// that may be down.
	Send(to int, m Msg) error
	// Inbox is the stream of messages addressed to this node.
	Inbox() <-chan Msg
	// Stats snapshots the traffic counters.
	Stats() Stats
	PeerStatser
	// Close shuts the transport down. Messages already sent are still
	// delivered where the medium allows (TCP: a link still dialing
	// makes one last attempt). Close is idempotent.
	Close() error
}

// counters is the shared atomic implementation behind Stats: obs
// counters (atomic, usable without a registry) for the transport
// totals plus a per-peer breakdown over the known peer set. Totals and
// per-peer entries are incremented from sending/reader goroutines and
// snapshotted from the owner — every field is atomic, so no lock.
type counters struct {
	msgsSent, msgsRecv   obs.Counter
	bytesSent, bytesRecv obs.Counter
	sendErrors, redials  obs.Counter
	queueDepth           obs.Gauge // TCP: frames held while a link (re)dials
	perPeer              map[int]*peerCounters
}

// peerCounters is one peer's share of the traffic.
type peerCounters struct {
	msgsSent, msgsRecv   obs.Counter
	bytesSent, bytesRecv obs.Counter
	sendErrors           obs.Counter // messages to this peer dropped after all attempts
}

// initPeers seeds the per-peer table for a known peer set. The map is
// read-only after construction, so lookups from concurrent reader and
// sending goroutines need no lock.
func (c *counters) initPeers(ids []int) {
	c.perPeer = make(map[int]*peerCounters, len(ids))
	for _, id := range ids {
		c.perPeer[id] = &peerCounters{}
	}
}

// countSend records msgs messages totalling b bytes sent to peer `to`.
func (c *counters) countSend(to int, msgs, b int64) {
	c.msgsSent.Add(msgs)
	c.bytesSent.Add(b)
	if p := c.perPeer[to]; p != nil {
		p.msgsSent.Add(msgs)
		p.bytesSent.Add(b)
	}
}

// countSendError records msgs messages to peer `to` dropped after
// exhausting delivery attempts, in the transport total and on that
// peer's link — the per-link view is what lets a consumer distinguish
// "my protocol partner's link failed" from "some unrelated link failed".
func (c *counters) countSendError(to int, msgs int64) {
	c.sendErrors.Add(msgs)
	if p := c.perPeer[to]; p != nil {
		p.sendErrors.Add(msgs)
	}
}

// countRecv records one message of b bytes received from peer `from`.
func (c *counters) countRecv(from int, b int64) {
	c.msgsRecv.Add(1)
	c.bytesRecv.Add(b)
	if p := c.perPeer[from]; p != nil {
		p.msgsRecv.Add(1)
		p.bytesRecv.Add(b)
	}
}

func (c *counters) snapshot() Stats {
	return Stats{
		MsgsSent:   c.msgsSent.Value(),
		MsgsRecv:   c.msgsRecv.Value(),
		BytesSent:  c.bytesSent.Value(),
		BytesRecv:  c.bytesRecv.Value(),
		SendErrors: c.sendErrors.Value(),
		Redials:    c.redials.Value(),
	}
}

// peerStats snapshots one peer's traffic (zero Stats for an unknown
// peer; Redials are transport-wide, not per peer).
func (c *counters) peerStats(id int) Stats {
	p := c.perPeer[id]
	if p == nil {
		return Stats{}
	}
	return Stats{
		MsgsSent:   p.msgsSent.Value(),
		MsgsRecv:   p.msgsRecv.Value(),
		BytesSent:  p.bytesSent.Value(),
		BytesRecv:  p.bytesRecv.Value(),
		SendErrors: p.sendErrors.Value(),
	}
}

// register attaches the transport's counters to an obs registry under
// the wire_* namespace, labeled with this node's id: the totals, the
// held-frame depth gauge, and the per-peer byte/msg series. Call once
// at setup; the counters themselves are live (no copying), so the
// registry always exports current values.
func (c *counters) register(reg *obs.Registry, node int) {
	if reg == nil {
		return
	}
	n := fmt.Sprintf("node=\"%d\"", node)
	reg.Attach(fmt.Sprintf("wire_msgs_sent_total{%s}", n), &c.msgsSent)
	reg.Attach(fmt.Sprintf("wire_msgs_recv_total{%s}", n), &c.msgsRecv)
	reg.Attach(fmt.Sprintf("wire_bytes_sent_total{%s}", n), &c.bytesSent)
	reg.Attach(fmt.Sprintf("wire_bytes_recv_total{%s}", n), &c.bytesRecv)
	reg.Attach(fmt.Sprintf("wire_send_errors_total{%s}", n), &c.sendErrors)
	reg.Attach(fmt.Sprintf("wire_redials_total{%s}", n), &c.redials)
	reg.Attach(fmt.Sprintf("wire_sendq_depth{%s}", n), &c.queueDepth)
	for id, p := range c.perPeer {
		pl := fmt.Sprintf("%s,peer=\"%d\"", n, id)
		reg.Attach(fmt.Sprintf("wire_peer_msgs_sent_total{%s}", pl), &p.msgsSent)
		reg.Attach(fmt.Sprintf("wire_peer_msgs_recv_total{%s}", pl), &p.msgsRecv)
		reg.Attach(fmt.Sprintf("wire_peer_bytes_sent_total{%s}", pl), &p.bytesSent)
		reg.Attach(fmt.Sprintf("wire_peer_bytes_recv_total{%s}", pl), &p.bytesRecv)
		reg.Attach(fmt.Sprintf("wire_peer_send_errors_total{%s}", pl), &p.sendErrors)
	}
}
