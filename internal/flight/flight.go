// Package flight is the cluster's black-box flight recorder and its
// offline replay auditor.
//
// The live observability layer (internal/obs: metrics, journey stamps,
// burn-rate alerts) answers "how much, how fast, right now" and keeps no
// events. This package is the one record of what happened: an
// operation's cross-node timeline is read only from it
// (Recording.Timelines, lbflight -op), live from a snapshot or after the
// process died. A Recorder takes every frame a node
// sends (a Tap, as wire.Transport middleware), every frame it processes
// and its own decisions (initiate, resolve, abort, freeze expiry,
// ingest, serving completions, final accounting), all in
// the order the node acted, into a bounded ring of binary segments, on
// disk or in memory. Audit loads those segments — from disk possibly
// long after the process died — and re-executes each node's stream
// through a real proto.Machine: every recorded send and decision must
// be the effect the machine recomputes, and every split must be the ±1
// share of the total it balanced. The first record where the recording and the
// machine part is flagged with its position in the recording; packet
// and job conservation and the VD trajectory are re-derived alongside.
//
// # Segment format
//
// A recording is a size-bounded ring of segments: the writer rotates at
// MaxBytes/8 and drops the oldest segment when the ring exceeds
// MaxBytes. On disk the ring is a directory of segment files
// (seg-NNNNNNNN.lbfr); a recorder opened without a directory keeps the
// same segments as byte slices, and Load reads either. Each segment is
//
//	header  := "LBFR" format(1B) uvarint(node) uvarint(segseq)
//	           uvarint(zig(wallRefNS)) codec(1B)
//	record  := uvarint(len(body)) body
//	body    := dir(1B) uvarint(zig(dWallNS)) tail
//
// where dWallNS is delta-coded against the previous record's stamp
// (the header reference for the first record) and tail depends on dir:
//
//	DirSend  uvarint(zig(peer)) wire-payload     frame this node sent
//	DirRecv  wire-payload                        frame it processed, recorded
//	                                             as it began to act on it
//	DirLocal kind(1B) uvarint(op) uvarint(n) n×uvarint(zig(arg))
//
// The header's format byte is FormatVersion (2); the reader refuses any
// other by name. Wire payloads reuse the existing length-prefixed codec
// verbatim (wire.AppendMsg / wire.DecodeMsg), so a recording decodes
// with the same strictness as the wire itself; the header's codec byte
// names the wire.Version they were recorded under, and the reader
// refuses any other. A local record's kind must be one the recorder
// writes (see LocalKind); the reader refuses any other by number, so
// every record a recording holds is one Audit judges.
//
// Every record carries its driver's clock, never the recorder's: the
// node passes the time it acted on (unix nanoseconds on a live node, the
// virtual tick under netsim) to each recording method, and a stamp never
// regresses; the recorder reads no clock. There is one write path:
// each recording call frames its record onto one append buffer the
// recorder owns, on the calling goroutine, under the recorder's mutex,
// and the buffer is written to the current segment every 32 KiB and when
// the segment is sealed — on a live node (Tap only wraps its transport)
// and under netsim alike. A node records from its one driver goroutine,
// so the mutex is contended only by a Snapshot or Close. Nothing queues,
// so no record is dropped unless a write fails: the torn segment is then
// deleted and its records counted (Dropped, Err), and the next record
// opens a fresh segment. A seeded netsim world's recording is a pure
// function of its seed, and netsim.Replay holds it to the world's
// result. The reader needs nothing but the segments: on disk it scans
// the directory.
//
// # Snapshots
//
// Snapshot seals the current segment and copies the live ring into
// snapshots/snap-NNN-<reason>/ with a manifest — the incident artifact,
// so only a recording on disk takes one. A node recording meanwhile
// waits for the copy; it loses nothing. obs.Monitor's OnAlert hook
// calls it on every burn-rate alert transition, so a firing /health
// leaves a replayable recording behind (see cmd/lbnode).
package flight

import (
	"fmt"
	"slices"
)

// Dir says which way a recorded frame moved (or that the record is a
// local decision, not a frame).
type Dir uint8

const (
	// DirSend is a frame this node put on the wire.
	DirSend Dir = 1
	// DirRecv is a frame this node processed.
	DirRecv Dir = 2
	// DirLocal is a local protocol decision (no frame).
	DirLocal Dir = 3
)

func (d Dir) String() string {
	if names := [...]string{DirSend: "send", DirRecv: "recv", DirLocal: "local"}; d > 0 && int(d) < len(names) {
		return names[d]
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// LocalKind discriminates local (non-frame) records.
type LocalKind uint8

// The local record kinds and their argument layouts (see Args):
//
//	LocalInitiate      op; args = seq, load, partners,
//	                          trigger factor f as math.Float64bits
//	LocalAbort         op; args = seq, load, reason code
//	LocalFreezeExpired op; args = freezer id
//	LocalResolve       op; args = seq, load after, partners balanced with,
//	                          1 if the reply timeout ended the collect
//	LocalComplete      op; args = job id, hops, sojourn ns, transfer ns
//	LocalFinal         args = load, generated, consumed, ingested,
//	                          units done, records held
//	LocalIngest        args = units of client work added to the load
//	LocalCrash         the node's protocol fail-stopped (proto.Machine.Crash)
//
// Kinds 4 and 8 are reserved: they named records no writer of the
// current format produces, and are never reassigned.
const (
	LocalInitiate LocalKind = 1 + iota
	LocalAbort
	LocalFreezeExpired
	_ // 4: reserved
	LocalResolve
	LocalComplete
	LocalFinal
	_ // 8: reserved
	LocalIngest
	LocalCrash
)

var localNames = [...]string{
	LocalInitiate:      "initiate",
	LocalAbort:         "abort",
	LocalFreezeExpired: "freeze_expired",
	LocalResolve:       "resolve",
	LocalComplete:      "complete",
	LocalFinal:         "final",
	LocalIngest:        "ingest",
	LocalCrash:         "crash",
}

func (k LocalKind) String() string {
	if k.known() {
		return localNames[k]
	}
	return fmt.Sprintf("LocalKind(%d)", uint8(k))
}

// known reports whether the recorder writes records of kind k.
func (k LocalKind) known() bool { return int(k) < len(localNames) && localNames[k] != "" }

// abortLabels[code] is the cluster's abort reason label for an on-disk
// abort code. Codes are stable; AbortCode maps an unknown label to 0 and
// AbortReason maps an unknown code to "unknown", so recordings survive
// new reasons in either direction.
var abortLabels = [...]string{"unknown", "peer_frozen", "timeout", "stale_epoch", "link_down"}

const (
	abortUnknown    = 0
	abortPeerFrozen = 1
	abortTimeout    = 2
)

// AbortCode returns the on-disk code for an abort reason label.
func AbortCode(reason string) int64 { return int64(max(0, slices.Index(abortLabels[:], reason))) }

// AbortReason returns the label for an on-disk abort code.
func AbortReason(code int64) string {
	if code < 0 || code >= int64(len(abortLabels)) {
		code = abortUnknown
	}
	return abortLabels[code]
}
