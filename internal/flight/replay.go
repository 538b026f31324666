package flight

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"lmbalance/internal/proto"
	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
)

// Violation is the first record of a stretch where a node's recording
// and its re-executed machine part, anchored to that exact record.
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

// NodeAudit is the replay's verdict on one node's stream.
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
	// Unverified counts the protocol records replay could not judge:
	// those ahead of the first record that proves the node unengaged (a
	// stream that begins mid-protocol, like a snapshot of a wrapped ring)
	// and those after a divergence, until the next.
	Unverified int64
	Torn       bool
	Final      *Final
	Violations []Violation
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
	First      *Violation  // the first divergence, or nil

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
	// re-derived from the replayed machines' loads.
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

// replayer re-executes one node's stream through a proto.Machine: the
// recorded inputs (initiates, reply timeouts, freeze expiries, processed
// frames, ingests) drive it, and the recorded outputs (protocol sends,
// resolves, aborts) must be its effects, in order. Workload steps go
// unrecorded, but only while the node is unengaged, so replay adopts the
// recorded load where the node leaves that state: its initiate and each
// FreezeAck it sends. It is unsynchronized at the start and after a
// divergence, until a record proves the node unengaged.
type replayer struct {
	audit            *NodeAudit
	evs              []Event
	rng              *rng.RNG // fixed: only where a split's extras land depends on it
	m                *proto.Machine
	f                float64
	effs, want       []proto.Effect // want: emitted, not yet carried out by a record
	synced, seqKnown bool           // seqKnown: the epoch too, learned at an initiate
	peers, ackers    []int          // ackers: of the resolve whose transfers are due
	acks             map[int]int    // load each partner reported in its current-epoch ack
	total            int            // that resolve's pre-split total
	split            split
	samples          *[]loadSample
	byeLoad          int
	byeSent          bool
}

// split is replay's own arithmetic for one resolve: the recorded shares
// must be the ±1 split of the machine's pre-split total, with exactly
// total mod n extras. Where those land follows the node's random stream,
// so take accounts for one share of the multiset.
type split struct{ base, rem, n, extra, plain int }

func (s *split) take(share int) bool {
	switch share {
	case s.base:
		s.plain++
	case s.base + 1:
		s.extra++
	default:
		return false
	}
	return s.extra <= s.rem && s.plain <= s.n-s.rem
}

type loadSample struct {
	wall, load int64
	node       int
}

// eventOp returns the balancing-op id an event belongs to.
func eventOp(ev Event) uint64 {
	if ev.Dir == DirLocal {
		return ev.Op
	}
	return ev.Msg.Op
}

func (r *replayer) step(i int) {
	ev, a := &r.evs[i], r.audit
	a.Events++
	switch ev.Dir {
	case DirSend:
		a.MsgsSent++
		if ev.Msg.Kind == wire.Bye {
			r.byeSent, r.byeLoad = true, ev.Msg.Load
		}
	case DirRecv:
		a.MsgsRecv++
	}
	switch k := ev.Msg.Kind; {
	case ev.Dir != DirLocal && k != wire.FreezeReq && k != wire.FreezeAck && k != wire.FreezeBusy &&
		k != wire.Transfer && k != wire.Release:
		return // the driver's own frames: transfer acks, job records, shutdown
	case ev.Kind == LocalInitiate:
		a.Initiated++
	case ev.Kind == LocalAbort:
		a.Aborted++
	case ev.Kind == LocalResolve:
		a.Resolved++
	case ev.Kind == LocalFreezeExpired:
		a.FreezeExpired++
	case ev.Kind == LocalComplete:
		a.Completes++
		return
	case (ev.Kind == LocalIngest || ev.Kind == LocalCrash) && !r.synced: // the next sync adopts the state
		return
	case ev.Kind == LocalFinal:
		a.Final = &Final{Load: int(ev.Arg(0)), Generated: ev.Arg(1), Consumed: ev.Arg(2),
			Ingested: ev.Arg(3), UnitsDone: ev.Arg(4), RecordsHeld: ev.Arg(5)}
		*r.samples = append(*r.samples, loadSample{ev.WallNS, ev.Arg(0), a.Node})
		if r.synced && len(r.want) > 0 {
			r.diverge(i, r.next())
		}
		return
	}
	if !r.synced {
		// Sync only where the record proves the node unengaged: its own
		// initiate, or a FreezeReq it answers with FreezeAck.
		if ev.Kind != LocalInitiate && !r.answersAck(i) {
			a.Unverified++
			return
		}
		r.m.Resume(0, 0)
		r.synced, r.seqKnown = true, false
	}
	r.judge(i)
	if s, l := *r.samples, int64(r.m.Load()); r.synced && (len(s) == 0 || s[len(s)-1].node != a.Node || s[len(s)-1].load != l) {
		*r.samples = append(s, loadSample{ev.WallNS, l, a.Node})
	}
}

// answersAck reports whether record i is a received FreezeReq and the
// next record the FreezeAck answering it.
func (r *replayer) answersAck(i int) bool {
	if i+1 >= len(r.evs) || r.evs[i].Dir != DirRecv {
		return false
	}
	req, next := r.evs[i].Msg, &r.evs[i+1]
	return req.Kind == wire.FreezeReq && next.Dir == DirSend && next.Msg.Kind == wire.FreezeAck &&
		next.Peer == req.From && next.Msg.Seq == req.Seq && next.Msg.Op == req.Op
}

func (r *replayer) desync() {
	r.synced, r.want, r.ackers = false, r.want[:0], r.ackers[:0]
}

// flag records a divergence at record i and desynchronizes.
func (r *replayer) flag(i int, rule, format string, args ...any) {
	ev := &r.evs[i]
	r.audit.Violations = append(r.audit.Violations, Violation{
		Node: r.audit.Node, Index: i, WallNS: ev.WallNS,
		Op: eventOp(*ev), Rule: rule, Detail: fmt.Sprintf(format, args...),
	})
	r.desync()
}

// diverge flags record i against what the machine computed instead.
func (r *replayer) diverge(i int, machine string) {
	ev := &r.evs[i]
	what := fmt.Sprintf("%s op=%d args=%v", ev.Kind, ev.Op, ev.Args)
	if ev.Dir != DirLocal {
		what = fmt.Sprintf("%s %s peer=%d seq=%d op=%d load=%d amount=%d",
			ev.Dir, ev.Msg.Kind, ev.Peer, ev.Msg.Seq, ev.Msg.Op, ev.Msg.Load, ev.Msg.Amount)
	}
	r.flag(i, "diverged", "recorded %s; the machine's %s", what, machine)
}

// head is the next effect no record carried out (zero if none); pop drops it.
func (r *replayer) head() *proto.Effect {
	if len(r.want) == 0 {
		return &proto.Effect{}
	}
	return &r.want[0]
}

func (r *replayer) pop() { r.want = append(r.want[:0], r.want[1:]...) }

func (r *replayer) next() string {
	switch e := r.head(); e.Kind {
	case 0:
		return "next effect is none"
	case proto.Send:
		return fmt.Sprintf("next effect is %s to %d seq=%d op=%d load=%d", e.Msg.Kind, e.To, e.Msg.Seq, e.Msg.Op, e.Msg.Load)
	default:
		return fmt.Sprintf("next effect is %s op=%d seq=%d load=%d partners=%d timeout=%v",
			[...]string{proto.Aborted: "abort", proto.Resolved: "resolve"}[e.Kind], e.Op, e.Seq, e.Load, e.Partners, e.Reason == proto.Timeout)
	}
}

func (r *replayer) judge(i int) {
	ev := &r.evs[i]
	switch {
	case ev.Dir == DirSend:
		r.send(i)
	case ev.Kind == LocalResolve || ev.Kind == LocalAbort:
		r.decide(i)
	case len(r.want) > 0:
		r.diverge(i, r.next())
	case ev.Dir == DirRecv:
		if !r.m.Engaged() && r.answersAck(i) {
			r.m.Resume(r.evs[i+1].Msg.Load, r.m.Seq())
		}
		if _, seen := r.acks[ev.Msg.From]; ev.Msg.Kind == wire.FreezeAck && !seen && r.m.Expects(ev.Msg) {
			r.acks[ev.Msg.From] = ev.Msg.Load
		}
		r.expect(r.m.Load(), r.m.Handle(ev.Msg, r.effs[:0]))
	case ev.Kind == LocalInitiate:
		r.initiate(i)
	case ev.Kind == LocalFreezeExpired && !r.m.Frozen():
		r.diverge(i, "machine is not frozen")
	case ev.Kind == LocalFreezeExpired:
		if r.effs = r.m.FreezeExpired(r.effs[:0]); r.effs[0].Peer != int(ev.Arg(0)) || r.effs[0].Op != ev.Op {
			r.diverge(i, fmt.Sprintf("freeze is node %d's for op %d", r.effs[0].Peer, r.effs[0].Op))
		}
	case ev.Kind == LocalIngest:
		r.m.Add(int(ev.Arg(0)))
	case ev.Kind == LocalCrash:
		r.m.Crash()
	}
}

// initiate adopts the recorded load and starts the machine's operation
// with the partners the FreezeReq sends that follow name.
func (r *replayer) initiate(i int) {
	ev := &r.evs[i]
	if r.m.Engaged() {
		r.diverge(i, fmt.Sprintf("machine is engaged (inflight=%v)", r.m.Inflight()))
		return
	}
	seq := r.m.Seq()
	if !r.seqKnown {
		seq = uint64(ev.Arg(0)) - 1 // so Initiate stamps the recorded epoch
	}
	if f := math.Float64frombits(uint64(ev.Arg(3))); f != r.f {
		r.m, r.f = proto.New(r.audit.Node, f, r.rng), f
	}
	r.m.Resume(int(ev.Arg(1)), seq)
	r.seqKnown = true
	clear(r.acks)
	r.peers, r.ackers = r.peers[:0], r.ackers[:0]
	j := i + 1
	for ; j < len(r.evs) && len(r.peers) < int(ev.Arg(2)) && r.evs[j].Dir == DirSend &&
		r.evs[j].Msg.Kind == wire.FreezeReq; j++ {
		r.peers = append(r.peers, r.evs[j].Peer)
	}
	r.expect(0, r.m.Initiate(r.peers, ev.Op, r.effs[:0]))
	// Fewer requests than announced is a divergence unless the stream ends
	// there.
	short := len(r.peers) < int(ev.Arg(2)) && j < len(r.evs)
	if short || r.m.Seq() != uint64(ev.Arg(0)) {
		r.diverge(i, fmt.Sprintf("epoch is %d and %d FreezeReq follow", r.m.Seq(), len(r.peers)))
	}
}

// expect queues the effects records must carry out; pre, the load
// before the event, opens a Resolved's pre-split total.
func (r *replayer) expect(pre int, effs []proto.Effect) {
	r.effs = effs
	for k, e := range effs {
		switch e.Kind {
		case proto.Resolved:
			r.total, r.ackers = pre, r.ackers[:0]
			for _, t := range effs[k+1 : k+1+e.Partners] {
				r.total += r.acks[t.To]
				r.ackers = append(r.ackers, t.To)
			}
			fallthrough
		case proto.Send, proto.Aborted:
			r.want = append(r.want, e)
		}
	}
}

// decide matches a resolve or abort against the machine's decision:
// kind, epoch, partners, timeout (for an abort: not peer_frozen) and an
// abort's load. One that no frame produced is the reply timeout's.
func (r *replayer) decide(i int) {
	ev := &r.evs[i]
	if len(r.want) == 0 && r.m.Inflight() {
		r.expect(r.m.Load(), r.m.ReplyTimeout(r.effs[:0]))
	}
	e, load, kind, timeout := r.head(), int(ev.Arg(1)), proto.Resolved, ev.Arg(3) != 0
	if ev.Kind == LocalAbort {
		kind, timeout = proto.Aborted, ev.Arg(2) != abortPeerFrozen
	}
	if e.Kind != kind || e.Op != ev.Op || e.Seq != uint64(ev.Arg(0)) || (e.Reason == proto.Timeout) != timeout ||
		(kind == proto.Resolved && e.Partners != int(ev.Arg(2))) || (kind == proto.Aborted && e.Load != load) {
		r.diverge(i, r.next())
		return
	}
	n := e.Partners + 1 // before pop moves the next effect under e
	r.pop()
	if kind == proto.Resolved {
		r.split = split{base: r.total / n, rem: r.total % n, n: n}
		if r.split.rem < 0 { // floor, as the machine splits a negative total
			r.split.base, r.split.rem = r.split.base-1, r.split.rem+n
		}
		if !r.split.take(load) {
			r.flag(i, "imbalance_violation", "initiator's share %d is not in the ±1 split of %d over %d", load, r.total, n)
			return
		}
		r.m.Resume(load, r.m.Seq()) // the extras went where the node's stream put them
	}
}

// send matches a protocol send against the machine's next Send. A
// Transfer's amount follows the node's stream, so instead of matching it
// must land the acker on a share of the split.
func (r *replayer) send(i int) {
	ev := &r.evs[i]
	if ev.Msg.Kind == wire.Transfer && !slices.Contains(r.ackers, ev.Peer) {
		r.flag(i, "transfer_to_unacked", "transfer to %d, the machine's ackers are %v", ev.Peer, r.ackers)
		return
	}
	if e := r.head(); e.Kind != proto.Send || e.To != ev.Peer || e.Msg.Kind != ev.Msg.Kind ||
		e.Msg.Seq != ev.Msg.Seq || e.Msg.Op != ev.Msg.Op || e.Msg.Load != ev.Msg.Load {
		r.diverge(i, r.next())
		return
	}
	r.pop()
	if share := r.acks[ev.Peer] + ev.Msg.Amount; ev.Msg.Kind == wire.Transfer && !r.split.take(share) {
		r.flag(i, "imbalance_violation", "partner %d's share %d is not in the ±1 split over %d (base %d, %d extra)",
			ev.Peer, share, r.split.n, r.split.base, r.split.rem)
	}
}

// vdBuckets is the resolution of the re-derived VD trajectory.
const vdBuckets = 32

// Audit re-executes every node's stream through its own proto.Machine
// and returns the combined verdict: divergences (first one flagged),
// offline conservation, the VD trajectory, and sojourns.
func Audit(rec *Recording) *AuditResult {
	res := &AuditResult{}
	var samples []loadSample
	for _, nr := range rec.Nodes {
		fixed := rng.New(0)
		r := &replayer{audit: &NodeAudit{Node: nr.Node, Torn: nr.Torn}, evs: nr.Events,
			rng: fixed, m: proto.New(nr.Node, 0, fixed), acks: map[int]int{}, samples: &samples}
		for i := range nr.Events {
			r.step(i)
			if ev := &nr.Events[i]; ev.Dir == DirLocal && ev.Kind == LocalComplete {
				res.SojournNS = append(res.SojournNS, ev.Arg(2))
			}
		}
		a := r.audit
		if a.Final != nil {
			if r.byeSent && r.byeLoad != a.Final.Load {
				last := len(nr.Events) - 1
				a.Violations = append(a.Violations, Violation{
					Node: a.Node, Index: last, WallNS: nr.Events[last].WallNS, Rule: "bye_mismatch",
					Detail: fmt.Sprintf("Bye reported load %d, final accounting says %d", r.byeLoad, a.Final.Load),
				})
			}
			res.FinalsSeen++
			res.TotalLoad += int64(a.Final.Load)
			res.Generated += a.Final.Generated
			res.Consumed += a.Final.Consumed
			res.Ingested += a.Final.Ingested
			res.UnitsDone += a.Final.UnitsDone
			res.RecordsHeld += a.Final.RecordsHeld
		}
		res.Nodes = append(res.Nodes, a)
		res.Violations = append(res.Violations, a.Violations...)
	}
	slices.SortFunc(res.Violations, func(a, b Violation) int {
		return cmp.Or(cmp.Compare(a.WallNS, b.WallNS), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Index, b.Index))
	})
	if len(res.Violations) > 0 {
		res.First = &res.Violations[0]
	}
	res.VD = vdTrajectory(samples, len(rec.Nodes))
	slices.Sort(res.SojournNS)
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
	slices.SortFunc(samples, func(a, b loadSample) int { return cmp.Compare(a.wall, b.wall) })
	t0 := samples[0].wall
	span := max(samples[len(samples)-1].wall-t0, 1)
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
		variance := max(sumSq/n-mean*mean, 0)
		vd := 0.0
		if mean != 0 {
			vd = math.Sqrt(variance) / mean
		}
		out = append(out, VDPoint{TNS: edge - t0, VD: vd, Mean: mean})
	}
	return out
}

// Timelines groups the merged stream by balancing-op id: the ids in
// order of first appearance, and each op's events across every node in
// merged order. Records outside any op (id 0) belong to none.
func (r *Recording) Timelines() ([]uint64, map[uint64][]Event) {
	var ops []uint64
	byOp := map[uint64][]Event{}
	for _, ev := range r.Merge() {
		op := eventOp(ev)
		if op == 0 {
			continue
		}
		if _, seen := byOp[op]; !seen {
			ops = append(ops, op)
		}
		byOp[op] = append(byOp[op], ev)
	}
	return ops, byOp
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
	totals := func(r *AuditResult) (t [4]int64) {
		for _, n := range r.Nodes {
			t[0], t[1], t[2], t[3] = t[0]+n.Initiated, t[1]+n.Resolved, t[2]+n.Aborted, t[3]+n.MsgsSent
		}
		return t
	}
	ta, tb := totals(a), totals(b)
	for k, field := range []string{"initiated", "resolved", "aborted", "msgs_sent"} {
		add(field, ta[k], tb[k])
	}
	add("total_load", a.TotalLoad, b.TotalLoad)
	add("conserved", a.Conserved(), b.Conserved())
	add("jobs_conserved", a.JobsConserved(), b.JobsConserved())
	if len(a.VD) > 0 && len(b.VD) > 0 {
		add("vd_final", fmt.Sprintf("%.4f", a.VD[len(a.VD)-1].VD), fmt.Sprintf("%.4f", b.VD[len(b.VD)-1].VD))
	}
	add("completes", int64(len(a.SojournNS)), int64(len(b.SojournNS)))
	return rows
}
