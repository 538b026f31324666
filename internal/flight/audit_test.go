package flight

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lmbalance/internal/proto"
	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
)

// An adversarial world for the auditor: N proto.Machines under a seeded
// scheduler that reorders, drops and duplicates control frames and
// injects reply timeouts and freeze expiries, each node writing exactly
// the records the cluster driver writes — initiates, sends, receives as
// it processes them, decisions, ingests, finals. What the adversary
// decides comes from one rng.Partition stream, each node's workload from
// another, so a different schedule never shifts a node's workload.

// Stream keys of the world, disjoint from the simulator's and the
// protocol explorer's.
const (
	auditSchedule rng.StreamKind = 201 + iota
	auditWorkload
	auditMachine
	auditDoctor
)

type frame struct {
	to  int
	msg wire.Msg
}

type world struct {
	n, delta int
	f        float64
	ms       []*proto.Machine
	machine  []*rng.RNG // ms[i]'s protocol stream; also draws its partners
	work     []*rng.RNG // node i's generate/consume/ingest draws
	sched    *rng.RNG
	mail     []frame
	effs     []proto.Effect
	cand     []int
	ops      uint64
	wall     int64
	gen, con []int64
	ingested []int64
	rec      *Recording
}

func newWorld(seed uint64) *world {
	p := rng.NewPartition(seed)
	shape := p.Stream(auditSchedule, 1) // the run's shape: not part of the schedule
	n := 2 + shape.Intn(5)
	delta := 1 + shape.Intn(n-1)
	w := &world{
		n: n, delta: delta, f: 1.05 + shape.Float64()*(float64(delta)-0.1),
		sched: p.Stream(auditSchedule, 0), rec: &Recording{},
		gen: make([]int64, n), con: make([]int64, n), ingested: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		w.machine = append(w.machine, p.Stream(auditMachine, uint64(i)))
		w.work = append(w.work, p.Stream(auditWorkload, uint64(i)))
		w.ms = append(w.ms, proto.New(i, w.f, w.machine[i]))
		w.rec.Nodes = append(w.rec.Nodes, &NodeRecording{Node: i})
	}
	return w
}

func (w *world) record(i int, ev Event) {
	nr := w.rec.Nodes[i]
	w.wall++
	ev.Node, ev.Seq, ev.WallNS = i, len(nr.Events), w.wall
	if ev.Dir == DirLocal {
		ev.Peer = -1
	}
	nr.Events = append(nr.Events, ev)
}

// apply carries out node i's effects the way cluster.Node does: each
// decision is recorded before the frames that announce it, each frame as
// it goes out through the adversary's network.
func (w *world) apply(i int, effs []proto.Effect) {
	w.effs = effs[:0]
	for _, e := range effs {
		switch e.Kind {
		case proto.Send:
			w.record(i, Event{Dir: DirSend, Peer: e.To, Msg: e.Msg})
			copies := 1
			if e.Msg.Kind != wire.Transfer { // control frames may vanish or arrive twice
				copies = [...]int{0, 2, 1, 1, 1, 1, 1, 1, 1, 1}[w.sched.Intn(10)]
			}
			for ; copies > 0; copies-- {
				w.mail = append(w.mail, frame{e.To, e.Msg})
			}
		case proto.Aborted:
			code := int64(abortTimeout)
			if e.Reason == proto.Busy {
				code = abortPeerFrozen
			}
			w.record(i, local(LocalAbort, e.Op, int64(e.Seq), int64(e.Load), code))
		case proto.Resolved:
			timedOut := int64(0)
			if e.Reason == proto.Timeout {
				timedOut = 1
			}
			w.record(i, local(LocalResolve, e.Op, int64(e.Seq), int64(e.Load), int64(e.Partners), timedOut))
		case proto.Unfroze:
			if e.Reason == proto.ByExpiry {
				w.record(i, local(LocalFreezeExpired, e.Op, int64(e.Peer)))
			}
		}
	}
}

// step is one adversary move.
func (w *world) step() {
	i := w.sched.Intn(w.n)
	m := w.ms[i]
	switch move := w.sched.Intn(20); {
	case move < 7: // a workload step: unrecorded, and only while unengaged
		if m.Engaged() {
			return
		}
		if w.work[i].Bernoulli(0.6) {
			m.Add(1)
			w.gen[i]++
		}
		if w.work[i].Bernoulli(0.4) && m.Load() > 0 {
			m.Add(-1)
			w.con[i]++
		}
		if m.Trigger() {
			w.cand = w.machine[i].SampleDistinct(w.n, w.delta, i, w.cand)
			w.ops++
			effs := m.Initiate(w.cand, w.ops, w.effs[:0])
			w.record(i, local(LocalInitiate, w.ops, int64(m.Seq()), int64(m.Load()), int64(len(w.cand)), int64(math.Float64bits(w.f))))
			w.apply(i, effs)
		}
	case move == 7: // client work lands, engaged or not
		units := 1 + w.work[i].Intn(3)
		m.Add(units)
		w.gen[i] += int64(units)
		w.ingested[i] += int64(units)
		w.record(i, local(LocalIngest, 0, int64(units)))
	case move < 18:
		w.deliver()
	case m.Inflight(): // a timeout fires, due or not
		w.apply(i, m.ReplyTimeout(w.effs[:0]))
	case m.Frozen():
		w.apply(i, m.FreezeExpired(w.effs[:0]))
	}
}

func (w *world) deliver() {
	if len(w.mail) == 0 {
		return
	}
	k := w.sched.Intn(len(w.mail))
	f := w.mail[k]
	w.mail[k] = w.mail[len(w.mail)-1]
	w.mail = w.mail[:len(w.mail)-1]
	w.record(f.to, Event{Dir: DirRecv, Peer: f.msg.From, Msg: f.msg})
	w.apply(f.to, w.ms[f.to].Handle(f.msg, w.effs[:0]))
}

// run plays the schedule out, lets the network settle on each machine's
// own escape hatches, and closes every stream with its final accounting.
func (w *world) run(moves int) {
	for k := 0; k < moves; k++ {
		w.step()
	}
	for engaged := true; engaged; {
		for len(w.mail) > 0 {
			w.deliver()
		}
		engaged = false
		for i, m := range w.ms {
			if m.Inflight() {
				w.apply(i, m.ReplyTimeout(w.effs[:0]))
			}
			if m.Frozen() {
				w.apply(i, m.FreezeExpired(w.effs[:0]))
			}
			engaged = engaged || len(w.mail) > 0
		}
	}
	for i, m := range w.ms {
		w.record(i, local(LocalFinal, 0, int64(m.Load()), w.gen[i], w.con[i], w.ingested[i], 0, 0))
	}
}

// doctoring is one protocol record altered in a clean recording, with the
// record the audit must flag in the doctored stream.
type doctoring struct {
	kind        string
	node, index int
	flagAt      int
	rule        string
	edit        func([]Event) []Event
}

// doctorings lists every alteration of a node's clean stream the audit
// must catch. Records up to the node's first sync point are left alone:
// replay cannot judge what precedes it.
func doctorings(evs []Event, node, n, delta int) []doctoring {
	var out []doctoring
	add := func(kind string, index, flagAt int, rule string, edit func(ev *Event)) {
		out = append(out, doctoring{kind, node, index, flagAt, rule, func(evs []Event) []Event {
			evs = slices.Clone(evs)
			if edit == nil {
				return slices.Delete(evs, index, index+1)
			}
			evs[index].Args = slices.Clone(evs[index].Args) // the clone above is shallow
			edit(&evs[index])
			return evs
		}})
	}
	sync, initiated := -1, false
	for i := range evs {
		ev := &evs[i]
		if sync < 0 {
			if ev.Kind == LocalInitiate || (ev.Dir == DirRecv && ev.Msg.Kind == wire.FreezeReq &&
				i+1 < len(evs) && evs[i+1].Msg.Kind == wire.FreezeAck && evs[i+1].Dir == DirSend) {
				sync, initiated = i, ev.Kind == LocalInitiate
			}
			continue
		}
		switch {
		case ev.Kind == LocalInitiate && initiated:
			add("initiate seq bumped", i, i, "diverged", func(ev *Event) { ev.Args[0]++ })
		case ev.Kind == LocalInitiate:
			initiated = true // from here on replay knows the node's epoch
		case i == sync+1 || ev.Dir != DirSend && ev.Dir != DirRecv:
		case ev.Dir == DirSend && ev.Msg.Kind == wire.FreezeAck:
			add("ack answered busy", i, i, "diverged", func(ev *Event) { ev.Msg.Kind, ev.Msg.Load = wire.FreezeBusy, 0 })
		case ev.Dir == DirSend && ev.Msg.Kind == wire.FreezeBusy:
			add("busy answered ack", i, i, "diverged", func(ev *Event) { ev.Msg.Kind = wire.FreezeAck })
		case ev.Dir == DirSend && ev.Msg.Kind == wire.Release:
			add("release deleted", i, i, "diverged", nil)
		case ev.Dir == DirSend && ev.Msg.Kind == wire.Transfer:
			res, shares, _ := resolveOf(evs, i)
			if res < 0 {
				continue
			}
			// Off by one in the direction that leaves the ±1 split.
			by, low := 1, shares[node]
			for _, s := range shares {
				low = min(low, s)
			}
			if shares[ev.Peer] == low {
				by = -1
			}
			add("transfer amount off by one", i, i, "imbalance_violation", func(ev *Event) { ev.Msg.Amount += by })
			// Redirected to a partner that answered busy, or else to any
			// node the operation did not balance with.
			to := -1
			for q := 0; q < n; q++ {
				if _, in := shares[q]; !in && (to < 0 || answered(evs, res, q, wire.FreezeBusy)) {
					to = q
				}
			}
			if to >= 0 {
				add("transfer to a partner that did not ack", i, i, "transfer_to_unacked", func(ev *Event) { ev.Peer = to })
			}
		case ev.Dir == DirRecv && ev.Msg.Kind == wire.FreezeAck:
			// An ack the machine counted: its sender is paid a transfer by
			// the resolve that follows. A lie about its load surfaces there.
			for j := i + 1; j < len(evs); j++ {
				if e := &evs[j]; e.Kind == LocalResolve && e.Op == ev.Msg.Op && e.Arg(0) == int64(ev.Msg.Seq) {
					if _, _, ackers := resolveOf(evs, j+1); slices.Contains(ackers, ev.Msg.From) && firstAck(evs, i) {
						add("ack load altered", i, j, "imbalance_violation", func(ev *Event) { ev.Msg.Load += 2 * (delta + 1) })
					}
					break
				}
			}
		}
	}
	return out
}

// resolveOf finds the resolve whose transfers include record i and
// returns its index, every participant's post-balance share (the
// initiator under its own id) and the ackers in transfer order.
func resolveOf(evs []Event, i int) (int, map[int]int, []int) {
	res := i - 1
	for res >= 0 && evs[res].Kind != LocalResolve {
		res--
	}
	if res < 0 {
		return -1, nil, nil
	}
	op, seq := evs[res].Op, uint64(evs[res].Arg(0))
	shares := map[int]int{evs[res].Node: int(evs[res].Arg(1))}
	var ackers []int
	for j := res + 1; j < len(evs) && evs[j].Dir == DirSend && evs[j].Msg.Kind == wire.Transfer && evs[j].Msg.Op == op; j++ {
		for k := res - 1; k >= 0; k-- {
			if a := &evs[k]; a.Dir == DirRecv && a.Msg.Kind == wire.FreezeAck && a.Msg.From == evs[j].Peer && a.Msg.Seq == seq && a.Msg.Op == op {
				shares[evs[j].Peer] = a.Msg.Load + evs[j].Msg.Amount
				break
			}
		}
		ackers = append(ackers, evs[j].Peer)
	}
	return res, shares, ackers
}

// firstAck reports whether ack record i is its sender's first for its
// operation — the one the machine counted.
func firstAck(evs []Event, i int) bool {
	return !answered(evs, i, evs[i].Msg.From, wire.FreezeAck)
}

// answered reports whether partner q's reply of kind k to the operation
// in flight at record i is on record before i.
func answered(evs []Event, i, q int, k wire.Kind) bool {
	for j := i - 1; j >= 0 && evs[j].Kind != LocalInitiate; j-- {
		if a := &evs[j]; a.Dir == DirRecv && a.Msg.Kind == k && a.Msg.From == q {
			return true
		}
	}
	return false
}

// TestAuditAdversarialSchedules: 500 seeded worlds audit clean with every
// record judged (soundness), and each seed doctors one protocol record,
// chosen by its own stream, which the audit must flag where the recording
// first contradicts the machine (completeness): the altered record itself,
// the record that slid into a deleted one's place, or — for an ack whose
// load only the split it feeds can contradict — that split's resolve.
func TestAuditAdversarialSchedules(t *testing.T) {
	// The row a per-step legality check misses: a transfer one unit too
	// generous that still leaves the spread at 1, shares {5, 5} → {5, 6}.
	byOne := []Event{
		local(LocalInitiate, 1, 1, 7, 1),
		sent(1, wire.FreezeReq, 1, 1, 0, 0),
		got(1, wire.FreezeAck, 1, 1, 3, 0),
		local(LocalResolve, 1, 1, 5, 1),
		sent(1, wire.Transfer, 1, 1, 0, 3),
	}
	if res := Audit(&Recording{Nodes: []*NodeRecording{{Events: byOne}}}); res.First == nil ||
		res.First.Rule != "imbalance_violation" || res.First.Index != 4 {
		t.Fatalf("transfer one unit too generous: want imbalance_violation at event 4, got %v", res.Violations)
	}

	const seeds, moves = 500, 300
	kinds, outcomes := map[string]int{}, map[string]int{}
	for seed := uint64(1); seed <= seeds; seed++ {
		w := newWorld(seed)
		w.run(moves)
		repro := fmt.Sprintf("seed=%d n=%d delta=%d f=%.3f", seed, w.n, w.delta, w.f)
		clean := Audit(w.rec)
		if clean.First != nil {
			t.Fatalf("%s: clean recording flagged: %v", repro, *clean.First)
		}
		if !clean.Conserved() {
			t.Fatalf("%s: clean recording does not conserve", repro)
		}
		for _, na := range clean.Nodes {
			if na.Unverified != 0 {
				t.Fatalf("%s: node %d has %d unverified records in a whole recording", repro, na.Node, na.Unverified)
			}
			outcomes["resolved"] += int(na.Resolved)
			outcomes["aborted"] += int(na.Aborted)
			outcomes["freeze expired"] += int(na.FreezeExpired)
		}
		for _, nr := range w.rec.Nodes {
			for _, ev := range nr.Events {
				if ev.Kind == LocalResolve && ev.Arg(3) != 0 {
					outcomes["resolved by timeout"]++
				}
			}
		}

		var all []doctoring
		for _, nr := range w.rec.Nodes {
			all = append(all, doctorings(nr.Events, nr.Node, w.n, w.delta)...)
		}
		if len(all) == 0 {
			continue
		}
		d := all[rng.NewPartition(seed).Stream(auditDoctor, 0).Intn(len(all))]
		kinds[d.kind]++
		doctored := &Recording{}
		for _, nr := range w.rec.Nodes {
			if nr.Node == d.node {
				nr = &NodeRecording{Node: nr.Node, Events: d.edit(nr.Events)}
			}
			doctored.Nodes = append(doctored.Nodes, nr)
		}
		res := Audit(doctored)
		if f := res.First; f == nil || f.Node != d.node || f.Index != d.flagAt || f.Rule != d.rule {
			t.Fatalf("%s: %s at node %d event %d: want %s at event %d, got %v",
				repro, d.kind, d.node, d.index, d.rule, d.flagAt, res.First)
		}
	}
	// The worlds only mean something if they reach every outcome.
	for _, k := range []string{"resolved", "aborted", "freeze expired", "resolved by timeout"} {
		if outcomes[k] == 0 {
			t.Errorf("no world reached %q: %v", k, outcomes)
		}
	}
	for _, k := range []string{"initiate seq bumped", "ack answered busy", "busy answered ack", "release deleted",
		"transfer amount off by one", "transfer to a partner that did not ack", "ack load altered"} {
		if kinds[k] == 0 {
			t.Errorf("no seed doctored %q: %v", k, kinds)
		}
	}
	t.Logf("clean outcomes: %v; doctored: %v", outcomes, kinds)
}
