// Package proto is the balancing handshake of the Lüling–Monien
// algorithm as one pure state machine: the factor-f trigger, the
// freeze/ack/transfer exchange with δ partners, the ±1 equal split, the
// epoch rules that reject stale replies, and the two escape hatches
// (initiator reply timeout, frozen-partner self-release) that keep it
// live on an unreliable network.
//
// A Machine is one node's protocol state. It takes events — Initiate,
// Handle, ReplyTimeout, FreezeExpired, Crash — and appends the ordered
// effects of each to a caller-owned buffer. It starts no goroutine,
// reads no clock, owns no transport and counts nothing: a driver decides
// when a timeout has elapsed, carries the Send effects, and hangs its
// own metrics on the rest. internal/cluster drives it on the wall clock
// over a wire.Transport; internal/netsim drives N of them single-
// threaded on a virtual tick clock.
//
// # Protocol
//
// A node whose load changed by the factor f since its last balancing
// operation initiates:
//
//  1. it sends FreezeReq to δ partners (chosen by the driver) and stops
//     doing workload steps;
//  2. a partner that is not engaged freezes (stops workload steps) and
//     replies FreezeAck carrying its load; an engaged partner replies
//     FreezeBusy;
//  3. when the collect ends — the last of the δ replies is in, or the
//     driver declares the missing ones overdue — the initiator balances
//     with the k partners that acked: it computes the ±1 equal shares
//     over itself and those k and sends each a Transfer with the
//     difference, which unfreezes it. A busy or silent partner is simply
//     not a participant. An operation over k partners is the paper's
//     operation with δ = k, so it needs k ≥ 1 and f < k+1 (Theorems 1–2);
//     only when that fails does the initiator abort — releasing whoever
//     froze — and re-arm with randomized backoff.
//
// Nobody waits on a busy node: a freeze conflict costs the operation
// that one partner, not the partners it already holds, and a collect
// left with nobody to balance with retries after backoff. Every
// protocol carries its initiator's epoch (Seq): replies and releases
// echo it, and anything that does not answer the operation in flight —
// another epoch, or an ack landing after the collect concluded — is
// recognized as a leftover instead of corrupting the current protocol
// (a leftover ack is answered with a Release). A Transfer's delta
// always applies — packet conservation depends on it — but it ends only
// the freeze it belongs to.
package proto

import (
	"slices"

	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
)

// BackoffSteps bounds the randomized backoff after an aborted protocol:
// the trigger stays disarmed for 1..BackoffSteps workload steps.
// Retrying on the very next step while every neighbor is also retrying
// leads to an abort storm.
const BackoffSteps = 8

// Kind labels an Effect.
type Kind uint8

const (
	// Send: transmit Msg to node To.
	Send Kind = iota + 1
	// Froze: this node froze for initiator Peer's operation (Op, Seq).
	// The FreezeAck Send follows.
	Froze
	// Unfroze: the freeze held for Peer's operation (Op, Seq) ended, for
	// Reason ByTransfer, ByRelease or ByExpiry.
	Unfroze
	// Aborted: this node's own operation (Op, Seq) died because too few
	// partners acked to balance with. Reason says how the collect ended:
	// Busy (the last reply came in) or Timeout. The next Partners effects
	// are the Release sends, one per partner that had frozen. Load is the
	// (unchanged) load; Stale reports whether a stale-epoch reply arrived
	// while the operation was in flight — the driver's evidence for
	// attributing a Timeout.
	Aborted
	// Resolved: this node's own operation (Op, Seq) balanced over itself
	// and the Partners partners that acked. Load is its new share; the
	// next Partners effects are the Transfer sends, one per acker, each
	// carrying that partner's delta. Reason is Timeout when the driver's
	// ReplyTimeout ended the collect and zero when the last reply did.
	Resolved
)

// Reason says why an operation was Aborted or a freeze Unfroze.
type Reason uint8

const (
	// Busy: every reply came in and too few were acks — the others
	// answered FreezeBusy (they were engaged themselves).
	Busy Reason = iota + 1
	// Timeout: the driver declared the missing replies overdue
	// (ReplyTimeout).
	Timeout
	// ByTransfer: the freezing operation's Transfer landed.
	ByTransfer
	// ByRelease: the initiator released the freeze (it aborted).
	ByRelease
	// ByExpiry: the driver declared the freeze overdue (FreezeExpired).
	ByExpiry
)

// Effect is one consequence of an event, for the driver to carry out.
// Effects of one event are ordered: a decision (Froze, Aborted,
// Resolved) precedes the frames that announce it.
type Effect struct {
	Kind     Kind
	Reason   Reason   // Aborted, Resolved, Unfroze
	Stale    bool     // Aborted
	To       int      // Send: destination
	Msg      wire.Msg // Send: the frame, From already stamped
	Peer     int      // Froze, Unfroze: the freezing initiator
	Op, Seq  uint64   // Froze, Unfroze, Aborted, Resolved: the operation
	Load     int      // Aborted, Resolved: this node's load afterwards
	Partners int      // Aborted, Resolved: Release/Transfer sends that follow
}

// Machine is one node's protocol state. It is not safe for concurrent
// use; a driver feeds it events from one goroutine.
type Machine struct {
	id  int
	f   float64
	rng *rng.RNG

	load int
	lOld int // load at the last balancing operation: the trigger base

	// initiator side
	inflight   bool
	seq        uint64 // protocol epoch; bumped per Initiate, abandon and Crash
	op         uint64 // current operation id (0 = none)
	asked      int    // partners the operation in flight sent FreezeReq to
	staleSeen  bool   // a stale-epoch reply arrived since Initiate
	ackedFrom  []int  // partners that froze for us
	ackedLoads []int
	busyFrom   []int // partners that refused
	backoff    int   // workload steps the trigger stays disarmed

	// partner side
	frozen    bool
	frozenBy  int
	frozenSeq uint64 // epoch of the freeze we acked
	frozenOp  uint64 // echoed on the effects of that freeze
}

// New returns node id's machine with trigger factor f. r is the node's
// random stream, shared with the driver: the machine draws the
// remainder offset of a resolve and the backoff of an abort from it, in
// that order relative to the driver's own draws, so a run is
// reproducible from the stream's seed.
func New(id int, f float64, r *rng.RNG) *Machine {
	return &Machine{id: id, f: f, rng: r}
}

// Load returns the node's current load.
func (m *Machine) Load() int { return m.load }

// Add applies a workload change (generation, consumption, ingest).
func (m *Machine) Add(delta int) { m.load += delta }

// Inflight reports whether the node's own operation is awaiting replies.
func (m *Machine) Inflight() bool { return m.inflight }

// Frozen reports whether the node is frozen for another's operation.
func (m *Machine) Frozen() bool { return m.frozen }

// Engaged reports whether the node is mid-protocol in either role; an
// engaged node makes no workload progress.
func (m *Machine) Engaged() bool { return m.inflight || m.frozen }

// Seq returns the current protocol epoch.
func (m *Machine) Seq() uint64 { return m.seq }

// Trigger is called once per workload step and reports whether the node
// should initiate now: it counts down the post-abort backoff, then
// evaluates the factor-f condition with the strict-change guard.
func (m *Machine) Trigger() bool {
	if m.backoff > 0 {
		m.backoff--
		return false
	}
	if m.load > m.lOld && float64(m.load) >= m.f*float64(m.lOld) {
		return true
	}
	return m.load < m.lOld && float64(m.load)*m.f <= float64(m.lOld)
}

// Initiate starts a balancing operation op with the given partners
// (distinct, not this node, at least one). The node must not be engaged.
func (m *Machine) Initiate(partners []int, op uint64, out []Effect) []Effect {
	m.inflight = true
	m.seq++
	m.op = op
	m.asked = len(partners)
	m.staleSeen = false
	m.ackedFrom = m.ackedFrom[:0]
	m.ackedLoads = m.ackedLoads[:0]
	m.busyFrom = m.busyFrom[:0]
	for _, p := range partners {
		out = m.send(out, p, wire.FreezeReq, 0)
	}
	return out
}

// Handle processes one incoming frame. Kinds outside the handshake
// (shutdown, job records, transfer acks) are the driver's and produce
// no effects.
func (m *Machine) Handle(msg wire.Msg, out []Effect) []Effect {
	switch msg.Kind {
	case wire.FreezeReq:
		// Refuse while engaged in any role.
		if m.inflight || m.frozen {
			return m.reply(out, &msg, wire.FreezeBusy, 0)
		}
		m.frozen = true
		m.frozenBy, m.frozenSeq, m.frozenOp = msg.From, msg.Seq, msg.Op
		out = append(out, Effect{Kind: Froze, Peer: msg.From, Op: msg.Op, Seq: msg.Seq})
		return m.reply(out, &msg, wire.FreezeAck, m.load)

	case wire.FreezeAck:
		if m.stale(msg) || slices.Contains(m.busyFrom, msg.From) {
			// An ack this node will not balance with — its operation was
			// abandoned or has concluded, or the sender already counted as
			// busy: release the partner now rather than leave it to its own
			// timeout.
			return m.reply(out, &msg, wire.Release, 0)
		}
		if slices.Contains(m.ackedFrom, msg.From) {
			return out // a duplicated ack must not count its sender twice
		}
		m.ackedFrom = append(m.ackedFrom, msg.From)
		m.ackedLoads = append(m.ackedLoads, msg.Load)
		return m.replied(out)

	case wire.FreezeBusy:
		// Each partner's first reply is the one that counts.
		if m.stale(msg) || slices.Contains(m.ackedFrom, msg.From) || slices.Contains(m.busyFrom, msg.From) {
			return out
		}
		m.busyFrom = append(m.busyFrom, msg.From)
		return m.replied(out)

	case wire.Transfer:
		// The delta always applies. The freeze clears, and the trigger
		// base moves, only if this transfer ends the freeze we are
		// actually in: a late transfer from an expired freeze must not
		// terminate a newer protocol's freeze.
		m.load += msg.Amount
		if !m.frozen || m.holds(msg) {
			if m.frozen {
				out = m.unfreeze(out, ByTransfer)
			}
			m.lOld = m.load
		}

	case wire.Release:
		if m.frozen && m.holds(msg) {
			out = m.unfreeze(out, ByRelease)
		}
	}
	return out
}

// ReplyTimeout ends the in-flight operation's collect with the replies
// it has (a no-op when there is no operation): the node balances with
// the partners that acked or, with too few, aborts and re-arms with
// backoff. Outstanding replies become stale either way. The driver calls
// it when the missing replies are overdue on its clock.
func (m *Machine) ReplyTimeout(out []Effect) []Effect {
	if !m.inflight {
		return out
	}
	out = m.conclude(out, Timeout)
	m.seq++
	return out
}

// FreezeExpired releases the node's freeze unilaterally (a no-op when it
// is not frozen). The driver calls it when the release or transfer is
// overdue on its clock — the initiator died or its release was lost.
func (m *Machine) FreezeExpired(out []Effect) []Effect {
	if !m.frozen {
		return out
	}
	return m.unfreeze(out, ByExpiry)
}

// Crash wipes the volatile protocol state, as a fail-stop does: an
// in-flight operation is forgotten without releasing its partners (they
// rescue themselves by FreezeExpired), a freeze is forgotten, and the
// epoch bumps so replies to the lost operation are stale. The load
// survives — it lives in stable storage — and becomes the trigger base.
func (m *Machine) Crash() {
	m.inflight, m.frozen = false, false
	m.seq++
	m.op = 0
	m.backoff = 0
	m.lOld = m.load
}

// Resume positions the machine, unengaged, at a recorded state: load
// (also the trigger base) and epoch seq, with no operation in flight, no
// freeze held and no backoff pending. A driver never needs it; an
// auditor re-executing a recorded stream calls it where the recording
// proves the node was unengaged, which is the only state a recording
// can position a machine at.
func (m *Machine) Resume(load int, seq uint64) {
	m.inflight, m.frozen = false, false
	m.op, m.backoff = 0, 0
	m.load, m.lOld = load, load
	m.seq = seq
}

// send appends a frame of the current operation; amount is a Transfer's
// delta.
func (m *Machine) send(out []Effect, to int, kind wire.Kind, amount int) []Effect {
	return append(out, Effect{Kind: Send, To: to,
		Msg: wire.Msg{Kind: kind, From: m.id, Seq: m.seq, Op: m.op, Amount: amount}})
}

// reply appends a frame answering req, echoing its operation; load is a
// FreezeAck's report.
func (m *Machine) reply(out []Effect, req *wire.Msg, kind wire.Kind, load int) []Effect {
	return append(out, Effect{Kind: Send, To: req.From,
		Msg: wire.Msg{Kind: kind, From: m.id, Seq: req.Seq, Op: req.Op, Load: load}})
}

// Expects reports whether a FreezeAck or FreezeBusy answers the
// operation in flight — the epoch rule. Anything else is a leftover of
// an abandoned protocol.
func (m *Machine) Expects(reply wire.Msg) bool {
	return m.inflight && reply.Seq == m.seq
}

// stale is !Expects, remembering that a leftover arrived mid-operation.
func (m *Machine) stale(reply wire.Msg) bool {
	if m.Expects(reply) {
		return false
	}
	m.staleSeen = m.staleSeen || m.inflight
	return true
}

// holds reports whether msg comes from the operation this node is
// frozen for.
func (m *Machine) holds(msg wire.Msg) bool {
	return m.frozenBy == msg.From && m.frozenSeq == msg.Seq
}

func (m *Machine) unfreeze(out []Effect, why Reason) []Effect {
	m.frozen = false
	return append(out, Effect{Kind: Unfroze, Reason: why,
		Peer: m.frozenBy, Op: m.frozenOp, Seq: m.frozenSeq})
}

// replied accounts for one partner's reply and concludes the collect
// when it was the last.
func (m *Machine) replied(out []Effect) []Effect {
	if len(m.ackedFrom)+len(m.busyFrom) < m.asked {
		return out
	}
	return m.conclude(out, 0)
}

// conclude ends the collect; how is Timeout when the driver cut it short
// and zero when the last reply came in. The k partners that acked and
// this node make the paper's operation with δ = k, which is valid for
// k ≥ 1 and f < k+1; anything less aborts.
func (m *Machine) conclude(out []Effect, how Reason) []Effect {
	m.inflight = false
	if k := len(m.ackedFrom); k >= 1 && m.f < float64(k+1) {
		return m.resolve(out, how)
	}
	if how == 0 {
		how = Busy // every reply is in, so the missing acks were refusals
	}
	return m.abort(out, how)
}

// abort ends the operation without moving load.
func (m *Machine) abort(out []Effect, why Reason) []Effect {
	out = append(out, Effect{Kind: Aborted, Reason: why, Stale: m.staleSeen,
		Op: m.op, Seq: m.seq, Load: m.load, Partners: len(m.ackedFrom)})
	for _, p := range m.ackedFrom {
		out = m.send(out, p, wire.Release, 0)
	}
	m.op = 0
	m.backoff = 1 + m.rng.Intn(BackoffSteps)
	return out
}

// resolve deals out the ±1 equal shares over this node and the partners
// that acked; how is the Resolved effect's Reason.
func (m *Machine) resolve(out []Effect, how Reason) []Effect {
	total := m.load
	for _, l := range m.ackedLoads {
		total += l
	}
	k := len(m.ackedFrom) + 1
	base, rem := total/k, total%k
	if rem < 0 {
		// Floor, not truncation: a partner's load can be below zero (a
		// late transfer from a freeze it had already let expire took what
		// it had since spent), and a truncated split of a negative total
		// deals out a packet more than the participants hold.
		base, rem = base-1, rem+k
	}
	// Rotate the start of the remainder run uniformly (the core package's
	// snake discipline, randomized): handing the extras to a fixed
	// participant index would let the initiator — index 0 — capture one
	// surplus packet on every operation with a remainder.
	off := 0
	if rem > 0 {
		off = m.rng.Intn(k)
	}
	share := func(idx int) int {
		if (idx-off+k)%k < rem {
			return base + 1
		}
		return base
	}
	m.load = share(0)
	m.lOld = m.load
	out = append(out, Effect{Kind: Resolved, Reason: how,
		Op: m.op, Seq: m.seq, Load: m.load, Partners: len(m.ackedFrom)})
	for i, p := range m.ackedFrom {
		out = m.send(out, p, wire.Transfer, share(i+1)-m.ackedLoads[i])
	}
	m.op = 0
	return out
}
