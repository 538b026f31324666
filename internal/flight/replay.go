package flight

import (
	"fmt"
	"math"
	"sort"

	"lmbalance/internal/wire"
)

// Violation is one illegal protocol step found by replay, anchored to
// the exact record that broke the rule.
type Violation struct {
	Node   int
	Index  int // position in the node's event stream
	WallNS int64
	Op     uint64
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("node %d event %d op=%d: %s (%s)", v.Node, v.Index, v.Op, v.Rule, v.Detail)
}

// Final is one node's end-of-run accounting from its LocalFinal record.
type Final struct {
	Load        int
	Generated   int64
	Consumed    int64
	Ingested    int64
	UnitsDone   int64
	RecordsHeld int64
}

// NodeAudit is the shadow machine's verdict on one node's stream.
type NodeAudit struct {
	Node          int
	Events        int
	MsgsSent      int64
	MsgsRecv      int64
	Initiated     int64
	Resolved      int64
	Aborted       int64
	FreezeExpired int64
	Completes     int64
	Drops         int64 // records the recorder had to discard (journaled gaps)
	Torn          bool
	Final         *Final
	Violations    []Violation
}

// VDPoint is one point of the re-derived variation-density trajectory.
type VDPoint struct {
	TNS  int64 // nanos since the recording's first event
	VD   float64
	Mean float64
}

// AuditResult is the whole-recording verdict.
type AuditResult struct {
	Nodes      []*NodeAudit
	Violations []Violation // all, ordered by (wall, node, index)
	First      *Violation  // the first illegal step, or nil

	// Conservation re-derived from the LocalFinal records. Valid (and
	// comparable bit-for-bit against the live run's audit) only when
	// every node's stream carries its final accounting.
	FinalsSeen  int
	TotalLoad   int64
	Generated   int64
	Consumed    int64
	Ingested    int64
	UnitsDone   int64
	RecordsHeld int64

	// VD is the offline variation-density trajectory (paper §5),
	// re-derived purely from load anchors in the recording.
	VD []VDPoint

	// SojournNS holds every replayed completion's sojourn, sorted —
	// per-unit latency reconstructed with no debug endpoint.
	SojournNS []int64
}

// Conserved reports offline packet conservation: Σload == Σgen − Σcon
// over the recorded finals.
func (a *AuditResult) Conserved() bool { return a.TotalLoad == a.Generated-a.Consumed }

// JobsConserved reports offline work conservation over the recorded
// finals: every ingested unit completed or still held.
func (a *AuditResult) JobsConserved() bool {
	return a.Ingested == a.UnitsDone+a.RecordsHeld
}

// SojournQuantile returns the q-quantile (0..1) of replayed sojourns.
func (a *AuditResult) SojournQuantile(q float64) int64 {
	if len(a.SojournNS) == 0 {
		return 0
	}
	i := int(q * float64(len(a.SojournNS)-1))
	return a.SojournNS[i]
}

// shadow is the per-node shadow protocol state machine. It re-derives
// the node's freeze/initiate state purely from the node's own actions
// (sends and local decisions, which are recorded in execution order)
// and uses received frames only for partner bookkeeping and lazy
// freeze clears.
//
// Lazy clears: the tap's receive pump records a frame before the node
// processes it, so a Recv Release/Transfer record can precede node
// actions taken while the node still considered itself frozen. A
// matching clear therefore only sets pendingClear; the freeze stays in
// force for legality until the node itself acts as unfrozen (sends a
// FreezeAck or initiates), at which point the pending clear is applied.
//
// Late acks: for the same reason an ack can be on record ahead of the
// resolve of a collect the reply timeout ended without it — the node
// had not seen it yet and will answer it with a Release. A timeout-ended
// resolve may therefore name fewer partners than acks are on record; one
// ended by its last reply names exactly those. Either way its transfers
// go only to peers whose ack is on record.
type shadow struct {
	audit *NodeAudit

	lastSeq uint64

	inflight bool
	op       uint64
	seq      uint64
	partners int
	frzSent  int
	acked    map[int]int // peer -> load it acked with

	resolving   bool
	resolveOp   uint64
	resolveLoad int
	expect      int
	shares      []int
	sent        map[int]bool

	frozen       bool
	pendingClear bool
	frozenBy     int
	frozenSeq    uint64
	frozenOp     uint64

	load      int64 // last known load anchor
	loadKnown bool

	byeLoad  int
	byeSent  bool
	finalsAt int
}

func newShadow(node int) *shadow {
	return &shadow{
		audit: &NodeAudit{Node: node},
		acked: map[int]int{},
		sent:  map[int]bool{},
	}
}

func (s *shadow) flag(ev Event, rule, format string, args ...any) {
	s.audit.Violations = append(s.audit.Violations, Violation{
		Node: ev.Node, Index: ev.Seq, WallNS: ev.WallNS,
		Op: eventOp(ev), Rule: rule, Detail: fmt.Sprintf(format, args...),
	})
}

// eventOp returns the balancing-op id an event belongs to.
func eventOp(ev Event) uint64 {
	if ev.Dir == DirLocal {
		return ev.Op
	}
	return ev.Msg.Op
}

// anchor records a known-load observation for the VD trajectory.
func (s *shadow) anchor(load int64) {
	s.load = load
	s.loadKnown = true
}

// clearFreeze applies a pending or direct freeze clear.
func (s *shadow) clearFreeze() {
	s.frozen = false
	s.pendingClear = false
}

type loadSample struct {
	wall int64
	node int
	load int64
}

func (s *shadow) step(ev Event, samples *[]loadSample) {
	s.audit.Events++
	switch ev.Dir {
	case DirLocal:
		s.local(ev, samples)
	case DirSend:
		s.audit.MsgsSent++
		s.sendMsg(ev, samples)
	case DirRecv:
		s.audit.MsgsRecv++
		s.recvMsg(ev, samples)
	}
}

func (s *shadow) local(ev Event, samples *[]loadSample) {
	switch ev.Kind {
	case LocalInitiate:
		seq, load, partners := uint64(ev.Arg(0)), ev.Arg(1), int(ev.Arg(2))
		s.audit.Initiated++
		if s.inflight {
			s.flag(ev, "initiate_while_inflight", "op %d still in flight", s.op)
		}
		if s.frozen {
			if s.pendingClear {
				s.clearFreeze()
			} else {
				s.flag(ev, "initiate_while_frozen", "frozen by %d", s.frozenBy)
			}
		}
		if seq <= s.lastSeq {
			s.flag(ev, "seq_regressed", "seq %d after %d", seq, s.lastSeq)
		}
		s.lastSeq = seq
		s.inflight, s.op, s.seq, s.partners = true, ev.Op, seq, partners
		s.frzSent = 0
		s.acked = map[int]int{}
		s.resolving = false
		s.anchor(load)
		*samples = append(*samples, loadSample{ev.WallNS, ev.Node, load})

	case LocalAbort:
		seq, load := uint64(ev.Arg(0)), ev.Arg(1)
		s.audit.Aborted++
		if !s.inflight || ev.Op != s.op {
			s.flag(ev, "abort_without_protocol", "abort op %d, in flight %d", ev.Op, s.op)
		}
		if seq > s.lastSeq {
			s.lastSeq = seq
		}
		s.inflight = false
		s.anchor(load)
		*samples = append(*samples, loadSample{ev.WallNS, ev.Node, load})

	case LocalResolve:
		seq, load, partners, timedOut := uint64(ev.Arg(0)), ev.Arg(1), int(ev.Arg(2)), ev.Arg(3) != 0
		s.audit.Resolved++
		if !s.inflight || ev.Op != s.op {
			s.flag(ev, "resolve_without_protocol", "resolve op %d, in flight %d", ev.Op, s.op)
		} else if len(s.acked) < partners || (!timedOut && len(s.acked) > partners) {
			s.flag(ev, "resolve_partner_mismatch", "%d acks recorded, resolve says %d", len(s.acked), partners)
		}
		if seq > s.lastSeq {
			s.lastSeq = seq
		}
		s.inflight = false
		s.resolving, s.resolveOp, s.resolveLoad = true, ev.Op, int(load)
		s.expect = partners
		s.shares = append(s.shares[:0], int(load))
		s.sent = map[int]bool{}
		s.anchor(load)
		*samples = append(*samples, loadSample{ev.WallNS, ev.Node, load})

	case LocalFreezeExpired:
		s.audit.FreezeExpired++
		if !s.frozen {
			s.flag(ev, "freeze_expiry_while_free", "expiry for freezer %d", ev.Arg(0))
		}
		s.clearFreeze()

	case LocalComplete:
		s.audit.Completes++

	case LocalFinal:
		s.audit.Final = &Final{
			Load:        int(ev.Arg(0)),
			Generated:   ev.Arg(1),
			Consumed:    ev.Arg(2),
			Ingested:    ev.Arg(3),
			UnitsDone:   ev.Arg(4),
			RecordsHeld: ev.Arg(5),
		}
		s.anchor(ev.Arg(0))
		*samples = append(*samples, loadSample{ev.WallNS, ev.Node, ev.Arg(0)})

	case LocalDrops:
		s.audit.Drops += ev.Arg(0)

	case LocalPaceBackoff:
		// informational only
	}
}

func (s *shadow) sendMsg(ev Event, samples *[]loadSample) {
	m := ev.Msg
	switch m.Kind {
	case wire.FreezeReq:
		if !s.inflight || m.Op != s.op || m.Seq != s.seq {
			s.flag(ev, "freeze_req_outside_protocol", "req op=%d seq=%d, in flight op=%d seq=%d", m.Op, m.Seq, s.op, s.seq)
			return
		}
		s.frzSent++
		if s.frzSent > s.partners {
			s.flag(ev, "freeze_req_excess", "request %d of %d partners", s.frzSent, s.partners)
		}

	case wire.FreezeAck:
		if s.inflight {
			s.flag(ev, "ack_while_inflight", "acked %d during own op %d", ev.Peer, s.op)
		}
		if s.frozen {
			if s.pendingClear {
				s.clearFreeze()
			} else {
				s.flag(ev, "ack_while_frozen", "already frozen by %d seq %d", s.frozenBy, s.frozenSeq)
			}
		}
		s.frozen, s.pendingClear = true, false
		s.frozenBy, s.frozenSeq, s.frozenOp = ev.Peer, m.Seq, m.Op
		s.anchor(int64(m.Load))
		*samples = append(*samples, loadSample{ev.WallNS, ev.Node, int64(m.Load)})

	case wire.FreezeBusy:
		if !s.inflight && !s.frozen {
			s.flag(ev, "busy_while_free", "busy to %d with no protocol and no freeze", ev.Peer)
		}

	case wire.Transfer:
		if !s.resolving || m.Op != s.resolveOp {
			s.flag(ev, "transfer_outside_op", "transfer op %d, resolving %d", m.Op, s.resolveOp)
			return
		}
		ackLoad, ok := s.acked[ev.Peer]
		if !ok {
			s.flag(ev, "transfer_to_unacked", "peer %d never acked op %d", ev.Peer, m.Op)
			return
		}
		if s.sent[ev.Peer] {
			s.flag(ev, "transfer_duplicate", "second transfer to %d in op %d", ev.Peer, m.Op)
			return
		}
		s.sent[ev.Peer] = true
		s.shares = append(s.shares, ackLoad+m.Amount)
		if len(s.shares) == s.expect+1 {
			lo, hi := s.shares[0], s.shares[0]
			for _, v := range s.shares[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi-lo > 1 {
				s.flag(ev, "imbalance_violation", "post-balance shares %v spread %d > 1", s.shares, hi-lo)
			}
			s.resolving = false
		}

	case wire.Bye:
		s.byeSent = true
		s.byeLoad = m.Load

	case wire.Release, wire.TransferAck, wire.Idle, wire.Quit, wire.JobMove, wire.JobDone:
		// Always legal: releases may target stale epochs by design, the
		// rest carry no freeze/balance state.
	}
}

func (s *shadow) recvMsg(ev Event, samples *[]loadSample) {
	m := ev.Msg
	switch m.Kind {
	case wire.FreezeAck:
		if s.inflight && m.Seq == s.seq && m.Op == s.op {
			s.acked[m.From] = m.Load
		}

	case wire.Transfer:
		if s.loadKnown {
			s.anchor(s.load + int64(m.Amount))
			*samples = append(*samples, loadSample{ev.WallNS, ev.Node, s.load})
		}
		if s.frozen && m.From == s.frozenBy && m.Seq == s.frozenSeq {
			s.pendingClear = true
		}

	case wire.Release:
		if s.frozen && m.From == s.frozenBy && m.Seq == s.frozenSeq {
			s.pendingClear = true
		}
	}
}

// finish runs the end-of-stream checks.
func (s *shadow) finish(lastWall int64) {
	if s.byeSent && s.audit.Final != nil && s.byeLoad != s.audit.Final.Load {
		s.audit.Violations = append(s.audit.Violations, Violation{
			Node: s.audit.Node, Index: s.audit.Events - 1, WallNS: lastWall,
			Rule:   "bye_mismatch",
			Detail: fmt.Sprintf("Bye reported load %d, final accounting says %d", s.byeLoad, s.audit.Final.Load),
		})
	}
}

// vdBuckets is the resolution of the re-derived VD trajectory.
const vdBuckets = 32

// Audit replays a recording through per-node shadow state machines and
// returns the combined verdict: legality violations (first one
// flagged), offline conservation, the VD trajectory, and sojourns.
func Audit(rec *Recording) *AuditResult {
	res := &AuditResult{}
	var samples []loadSample
	for _, nr := range rec.Nodes {
		s := newShadow(nr.Node)
		s.audit.Torn = nr.Torn
		var lastWall int64
		for _, ev := range nr.Events {
			s.step(ev, &samples)
			lastWall = ev.WallNS
			if ev.Dir == DirLocal && ev.Kind == LocalComplete {
				res.SojournNS = append(res.SojournNS, ev.Arg(2))
			}
		}
		s.finish(lastWall)
		if s.audit.Final != nil {
			res.FinalsSeen++
			res.TotalLoad += int64(s.audit.Final.Load)
			res.Generated += s.audit.Final.Generated
			res.Consumed += s.audit.Final.Consumed
			res.Ingested += s.audit.Final.Ingested
			res.UnitsDone += s.audit.Final.UnitsDone
			res.RecordsHeld += s.audit.Final.RecordsHeld
		}
		res.Nodes = append(res.Nodes, s.audit)
		res.Violations = append(res.Violations, s.audit.Violations...)
	}
	sort.Slice(res.Violations, func(i, j int) bool {
		a, b := res.Violations[i], res.Violations[j]
		if a.WallNS != b.WallNS {
			return a.WallNS < b.WallNS
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Index < b.Index
	})
	if len(res.Violations) > 0 {
		res.First = &res.Violations[0]
	}
	res.VD = vdTrajectory(samples, len(rec.Nodes))
	sort.Slice(res.SojournNS, func(i, j int) bool { return res.SojournNS[i] < res.SojournNS[j] })
	return res
}

// vdTrajectory re-derives the variation-density curve (std/mean over
// node loads, paper §5) from the recording's load anchors: each
// bucket's value is computed from every node's last known load at the
// bucket boundary, starting once all nodes have reported one.
func vdTrajectory(samples []loadSample, nodes int) []VDPoint {
	if len(samples) == 0 || nodes == 0 {
		return nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].wall < samples[j].wall })
	t0, t1 := samples[0].wall, samples[len(samples)-1].wall
	if t1 == t0 {
		t1 = t0 + 1
	}
	span := t1 - t0
	last := map[int]int64{}
	var out []VDPoint
	i := 0
	for b := 1; b <= vdBuckets; b++ {
		edge := t0 + span*int64(b)/vdBuckets
		for i < len(samples) && samples[i].wall <= edge {
			last[samples[i].node] = samples[i].load
			i++
		}
		if len(last) < nodes {
			continue // not every node has anchored yet
		}
		var sum, sumSq float64
		for _, l := range last {
			sum += float64(l)
			sumSq += float64(l) * float64(l)
		}
		n := float64(len(last))
		mean := sum / n
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		vd := 0.0
		if mean != 0 {
			vd = math.Sqrt(variance) / mean
		}
		out = append(out, VDPoint{TNS: edge - t0, VD: vd, Mean: mean})
	}
	return out
}

// Timeline returns every event of one balancing op across all nodes,
// in merged order — the per-op reconstruction that previously needed a
// live /trace endpoint.
func (r *Recording) Timeline(op uint64) []Event {
	var out []Event
	for _, ev := range r.Merge() {
		if op != 0 && eventOp(ev) == op {
			out = append(out, ev)
		}
	}
	return out
}

// Ops returns the distinct balancing-op ids in the recording, ordered
// by first appearance in the merged stream.
func (r *Recording) Ops() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, ev := range r.Merge() {
		if op := eventOp(ev); op != 0 && !seen[op] {
			seen[op] = true
			out = append(out, op)
		}
	}
	return out
}

// DiffRow is one field where two recordings disagree.
type DiffRow struct {
	Field string
	A, B  string
}

// Diff compares two audits field-by-field — the "paced vs free-running"
// or "before vs after" comparison — returning only the disagreements.
func Diff(a, b *AuditResult) []DiffRow {
	var rows []DiffRow
	add := func(field string, av, bv any) {
		as, bs := fmt.Sprint(av), fmt.Sprint(bv)
		if as != bs {
			rows = append(rows, DiffRow{Field: field, A: as, B: bs})
		}
	}
	add("nodes", len(a.Nodes), len(b.Nodes))
	add("violations", len(a.Violations), len(b.Violations))
	var ai, ar, ab, bi, br, bb int64
	var am, bm int64
	for _, n := range a.Nodes {
		ai += n.Initiated
		ar += n.Resolved
		ab += n.Aborted
		am += n.MsgsSent
	}
	for _, n := range b.Nodes {
		bi += n.Initiated
		br += n.Resolved
		bb += n.Aborted
		bm += n.MsgsSent
	}
	add("initiated", ai, bi)
	add("resolved", ar, br)
	add("aborted", ab, bb)
	add("msgs_sent", am, bm)
	add("total_load", a.TotalLoad, b.TotalLoad)
	add("conserved", a.Conserved(), b.Conserved())
	add("jobs_conserved", a.JobsConserved(), b.JobsConserved())
	if len(a.VD) > 0 && len(b.VD) > 0 {
		add("vd_final", fmt.Sprintf("%.4f", a.VD[len(a.VD)-1].VD), fmt.Sprintf("%.4f", b.VD[len(b.VD)-1].VD))
	}
	add("completes", int64(len(a.SojournNS)), int64(len(b.SojournNS)))
	return rows
}
