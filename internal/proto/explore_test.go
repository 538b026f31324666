package proto

import (
	"fmt"
	"testing"

	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
)

// Seeded schedule exploration: N machines and a mailbox under an
// adversarial scheduler. Everything the adversary decides — which node
// steps, which pending frame lands next, which control frames are lost
// or duplicated (a late duplicate is a stale-epoch frame), when a
// timeout fires and who crashes — comes from one rng.Partition stream;
// each node's workload and each machine's protocol draws come from
// streams keyed separately, so the fault schedule can never shift them.
// No clock anywhere: a timeout is just another event the adversary may
// inject at any moment, which is strictly more hostile than any timer.

// Stream keys of the exploration, disjoint from the simulator's.
const (
	streamSchedule rng.StreamKind = 101 + iota
	streamWorkload
	streamMachine
)

type frame struct {
	to  int
	msg wire.Msg
}

// Reply kinds the world saw land at an initiator, per partner.
const (
	noReply int8 = iota
	ackReply
	busyReply
)

type world struct {
	n, delta int
	f        float64
	faults   bool
	ms       []*Machine
	machine  []*rng.RNG // ms[i]'s protocol stream; also draws its partners
	work     []*rng.RNG // node i's generate/consume draws
	sched    *rng.RNG
	mail     []frame
	effs     []Effect
	cand     []int
	// asked[i] is node i's latest partner draw and replied[i][q] the first
	// current-operation reply from q the world delivered to i — the
	// world's own record of the collect, kept apart from the machine's.
	asked   [][]int
	replied [][]int8

	gen, con                            int
	initiated, resolved, aborted, wiped int
	draws                               [][]bool // per node: every workload draw, in order
	err                                 error
}

func newWorld(seed uint64, faults bool) *world {
	p := rng.NewPartition(seed)
	shape := p.Stream(streamSchedule, 1) // the run's shape: not part of the schedule
	n := 2 + shape.Intn(5)
	w := &world{
		n: n, delta: 1 + shape.Intn(n-1), faults: faults,
		sched: p.Stream(streamSchedule, 0),
		draws: make([][]bool, n), asked: make([][]int, n), replied: make([][]int8, n),
	}
	f := 1.05 + shape.Float64()
	w.f = f
	for i := 0; i < n; i++ {
		w.replied[i] = make([]int8, n)
		w.machine = append(w.machine, p.Stream(streamMachine, uint64(i)))
		w.work = append(w.work, p.Stream(streamWorkload, uint64(i)))
		w.ms = append(w.ms, New(i, f, w.machine[i]))
	}
	return w
}

func (w *world) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// apply posts node i's frames through the adversary's network and checks
// every Resolved against the ±1 and zero-sum rules. pre is the node's
// load before the event.
func (w *world) apply(i, pre int, effs []Effect) {
	w.effs = effs[:0]
	for k := range effs {
		e := &effs[k]
		switch e.Kind {
		case Send:
			if w.faults && e.Msg.Kind != wire.Transfer {
				// Control frames may vanish or arrive twice; transfers are
				// delivered exactly once, on any schedule.
				switch w.sched.Intn(10) {
				case 0:
					continue
				case 1:
					w.mail = append(w.mail, frame{e.To, e.Msg})
				}
			}
			w.mail = append(w.mail, frame{e.To, e.Msg})
		case Aborted:
			w.aborted++
		case Resolved:
			w.resolved++
			partners, loads := w.ms[i].ackedFrom, w.ms[i].ackedLoads
			if e.Partners != len(partners) || k+e.Partners >= len(effs) {
				w.fail("Resolved names %d partners, %d acked, %d effects follow", e.Partners, len(partners), len(effs)-k-1)
				return
			}
			lo, hi, sum, total := e.Load, e.Load, e.Load, pre
			for j, tr := range effs[k+1 : k+1+e.Partners] {
				if tr.Kind != Send || tr.Msg.Kind != wire.Transfer || tr.To != partners[j] {
					w.fail("effect after Resolved is not partner %d's transfer: %+v", partners[j], tr)
					return
				}
				for _, q := range partners[:j] {
					if q == partners[j] {
						w.fail("partner %d takes part twice", q)
					}
				}
				share := loads[j] + tr.Msg.Amount
				lo, hi = min(lo, share), max(hi, share)
				sum += share
				total += loads[j]
			}
			if hi-lo > 1 || sum != total {
				w.fail("node %d resolved %d+%v into spread %d, sum %d", i, pre, loads, hi-lo, sum)
			}
			w.checkParticipants(i, e, effs[k+1:k+1+e.Partners])
		}
	}
}

// checkParticipants holds a Resolved against the replies the world
// itself delivered: the operation is the paper's with δ = k (k ≥ 1,
// f < k+1), its transfers go to exactly the partners whose ack landed,
// and a partner is left out only because its first reply was Busy or —
// when the timeout ended the collect — because none had landed.
func (w *world) checkParticipants(i int, e *Effect, transfers []Effect) {
	if k := e.Partners; k < 1 || w.f >= float64(k+1) {
		w.fail("node %d resolved over %d partners with f=%v", i, k, w.f)
	}
	absent := 0
	for _, q := range w.asked[i] {
		paid := false
		for _, tr := range transfers {
			paid = paid || tr.To == q
		}
		switch w.replied[i][q] {
		case ackReply:
			if !paid {
				w.fail("node %d resolved without partner %d, whose ack had landed", i, q)
			}
		case busyReply:
			if paid {
				w.fail("node %d sent a transfer to partner %d, which answered busy", i, q)
			}
		default:
			absent++
			if paid {
				w.fail("node %d sent a transfer to partner %d, which never replied", i, q)
			}
		}
	}
	if (absent > 0) != (e.Reason == Timeout) {
		w.fail("node %d resolved with %d replies absent, Resolved.Reason=%d", i, absent, e.Reason)
	}
}

// step is one adversary move.
func (w *world) step() {
	i := w.sched.Intn(w.n)
	m := w.ms[i]
	switch move := w.sched.Intn(16); {
	case move < 7: // node i takes a workload step
		if m.Engaged() {
			return
		}
		g, c := w.work[i].Bernoulli(0.6), w.work[i].Bernoulli(0.4)
		w.draws[i] = append(w.draws[i], g, c)
		if g {
			m.Add(1)
			w.gen++
		}
		if c && m.Load() > 0 {
			m.Add(-1)
			w.con++
		}
		if m.Trigger() {
			w.cand = w.machine[i].SampleDistinct(w.n, w.delta, i, w.cand)
			w.asked[i] = append(w.asked[i][:0], w.cand...)
			clear(w.replied[i])
			w.initiated++
			w.apply(i, m.Load(), m.Initiate(w.cand, uint64(w.initiated), w.effs[:0]))
		}
	case move < 14: // any pending frame lands
		w.deliver()
	case !w.faults:
	case move == 14: // a timeout fires, due or not
		if m.Inflight() {
			w.apply(i, m.Load(), m.ReplyTimeout(w.effs[:0]))
		} else {
			w.apply(i, m.Load(), m.FreezeExpired(w.effs[:0]))
		}
	case w.sched.Intn(4) == 0: // fail-stop
		if m.Inflight() {
			w.wiped++
		}
		m.Crash()
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
	m := w.ms[f.to]
	pre := m.Load()
	if k := f.msg.Kind; (k == wire.FreezeAck || k == wire.FreezeBusy) && m.Expects(f.msg) && w.replied[f.to][f.msg.From] == noReply {
		w.replied[f.to][f.msg.From] = ackReply
		if k == wire.FreezeBusy {
			w.replied[f.to][f.msg.From] = busyReply
		}
	}
	w.apply(f.to, pre, m.Handle(f.msg, w.effs[:0]))
}

// run plays the schedule out, lets the network settle and checks the
// end-state invariants.
func (w *world) run(moves int) error {
	for k := 0; k < moves && w.err == nil; k++ {
		w.step()
	}
	// Settle: the workload stops; frames keep landing. Without faults the
	// protocol must quiesce on its own; with them, each machine's own
	// escape hatch must be all it takes.
	for round := 0; w.err == nil; round++ {
		for len(w.mail) > 0 && w.err == nil {
			w.deliver()
		}
		engaged := false
		for i, m := range w.ms {
			if !m.Engaged() {
				continue
			}
			engaged = true
			if !w.faults {
				w.fail("node %d still engaged (inflight=%v frozen=%v) on a quiet fault-free network", i, m.Inflight(), m.Frozen())
			}
			w.apply(i, m.Load(), m.ReplyTimeout(w.effs[:0]))
			w.apply(i, m.Load(), m.FreezeExpired(w.effs[:0]))
		}
		if !engaged {
			break
		}
		if round > 2*w.n {
			w.fail("timeouts did not quiesce the network")
		}
	}
	if w.err != nil {
		return w.err
	}
	total := 0
	for _, m := range w.ms {
		total += m.Load()
	}
	if total != w.gen-w.con {
		return fmt.Errorf("conservation: Σload %d, generated %d − consumed %d", total, w.gen, w.con)
	}
	if w.initiated != w.resolved+w.aborted+w.wiped {
		return fmt.Errorf("liveness: %d initiated, %d resolved + %d aborted + %d lost to crashes",
			w.initiated, w.resolved, w.aborted, w.wiped)
	}
	return nil
}

// TestExploreSchedules runs thousands of seeded adversarial schedules.
// A failure is a one-line reproducer, never a flake.
func TestExploreSchedules(t *testing.T) {
	const seeds, moves = 2500, 400
	var initiated, resolved, aborted, wiped int
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, faults := range []bool{false, true} {
			w := newWorld(seed, faults)
			if err := w.run(moves); err != nil {
				t.Fatalf("seed=%d n=%d delta=%d faults=%v: %v", seed, w.n, w.delta, faults, err)
			}
			if faults {
				initiated, resolved, aborted, wiped = initiated+w.initiated, resolved+w.resolved, aborted+w.aborted, wiped+w.wiped
			}
		}
	}
	// The exploration only means something if it reaches every outcome.
	if resolved == 0 || aborted == 0 || wiped == 0 {
		t.Fatalf("faulty schedules never reached an outcome: %d initiated, %d resolved, %d aborted, %d wiped",
			initiated, resolved, aborted, wiped)
	}
	t.Logf("%d faulty schedules: %d initiated, %d resolved, %d aborted, %d lost to crashes",
		seeds, initiated, resolved, aborted, wiped)
}

// TestExploreStreamIsolation: the adversary's draws must not shift the
// workload's. The same seed with and without faults makes different
// scheduling decisions, yet every node's generate/consume draws are the
// same sequence — what differs is only how far along it each run got.
func TestExploreStreamIsolation(t *testing.T) {
	differed := 0
	for seed := uint64(1); seed <= 50; seed++ {
		calm, hostile := newWorld(seed, false), newWorld(seed, true)
		if err := calm.run(400); err != nil {
			t.Fatalf("seed=%d n=%d delta=%d faults=false: %v", seed, calm.n, calm.delta, err)
		}
		if err := hostile.run(400); err != nil {
			t.Fatalf("seed=%d n=%d delta=%d faults=true: %v", seed, hostile.n, hostile.delta, err)
		}
		compared := 0
		for i := range calm.draws {
			a, b := calm.draws[i], hostile.draws[i]
			for k := 0; k < min(len(a), len(b)); k++ {
				compared++
				if a[k] != b[k] {
					t.Fatalf("seed=%d n=%d delta=%d: node %d workload draw %d shifted under faults", seed, calm.n, calm.delta, i, k)
				}
			}
			if len(a) != len(b) {
				differed++
			}
		}
		if compared == 0 {
			t.Fatalf("seed=%d: no workload draws to compare", seed)
		}
	}
	if differed == 0 {
		t.Fatal("faults never changed a schedule: the comparison proved nothing")
	}
}
