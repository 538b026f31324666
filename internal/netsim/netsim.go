// Package netsim is the deterministic, share-nothing simulation of the
// Lüling–Monien algorithm under message passing: N protocol machines
// (internal/proto — the same handshake internal/cluster runs over real
// transports), each owning its load counter, exchanging frames through an
// in-memory mailbox on a virtual tick clock. One goroutine, no wall
// clock: a Result is a pure function of its Config, so every number an
// experiment reports is reproducible from its seeds.
//
// # Time and delivery
//
// Time advances in ticks. In every tick the frames due are delivered in
// the order they were sent, and then every node takes its turn: a live,
// unengaged node with steps left performs one workload step (generate,
// consume, evaluate the trigger, maybe initiate); an engaged node makes
// no workload progress, exactly as in the protocol. A frame sent at tick
// t is due at t+1, so a balancing operation costs its participants a
// request/reply round trip plus the transfer — three ticks — and nodes
// that initiate in the same tick genuinely collide. The run ends when
// every node has finished its steps, no frame is in flight and nobody
// is engaged.
//
// # Fault injection
//
// Config.Faults arms an adversarial network layer on the mailbox:
// control frames (FreezeReq/FreezeAck/FreezeBusy/Release) can be
// dropped, every frame can be delayed extra ticks, and nodes can
// fail-stop and recover on a schedule. Transfers are always delivered
// (and applied even at crashed nodes — load lives in stable storage), so
// total packet count is conserved exactly under any fault pattern. The
// protocol stays live through the machine's two timeouts, which this
// driver fires in ticks: an initiator that misses replies balances with
// the partners it did hear from (or, having heard from too few, aborts
// with randomized backoff), and a frozen partner whose transfer or
// release never comes (its ack was lost, or its initiator crashed)
// unfreezes itself. With the zero Faults value no frame is ever late, so
// neither timeout can fire.
//
// The packet counters model fungible load units; the full per-class
// virtual-load machinery (borrowing etc.) lives in internal/core — this
// package demonstrates the balancing geometry and trigger discipline
// under message passing, measures its communication cost, and is the
// bench on which the handshake meets loss, delay and crashes.
package netsim

import (
	"fmt"
	"sort"

	"lmbalance/internal/obs"
	"lmbalance/internal/proto"
	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
	"lmbalance/internal/wire"
)

// Config parameterizes a run.
type Config struct {
	// N is the number of simulated processors (>= 2).
	N int
	// Delta and F are the algorithm parameters (1 <= Delta < N, F > 1).
	Delta int
	F     float64
	// Steps is the number of workload steps each node performs.
	Steps int
	// GenP[i] and ConP[i] are node i's per-step generate/consume
	// probabilities (both may fire in one step, as in the paper's §7
	// model). Length N, or length 1 to apply to all nodes.
	GenP, ConP []float64
	// Seed drives all randomness.
	Seed uint64
	// Graph, if non-nil, restricts balancing partners to each node's
	// graph neighborhood (the paper's locality extension); it must have N
	// vertices and every node needs at least one neighbor. Nil selects
	// partners uniformly from all nodes (the paper's model).
	Graph *topology.Graph
	// Faults configures the fault-injection layer (see Faults). The zero
	// value disables it.
	Faults Faults
	// Obs, if non-nil, receives the run's aggregate totals (netsim_*
	// counters) and the final load distribution when Run returns. The
	// totals are published once at the end — per-event instrumentation
	// would put atomics in the simulator's hot loop.
	Obs *obs.Registry
}

func (c *Config) validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("netsim: N = %d, need >= 2", c.N)
	case c.Delta < 1 || c.Delta >= c.N:
		return fmt.Errorf("netsim: Delta = %d, need 1 <= Delta < N", c.Delta)
	case c.F <= 1:
		return fmt.Errorf("netsim: F = %v, need > 1", c.F)
	case c.F >= float64(c.Delta)+1:
		// An operation over k <= Delta partners needs F < k+1
		// (proto.Machine.conclude); past this bound none can complete.
		return fmt.Errorf("netsim: F = %v violates F < Delta+1 = %d (Theorem 1 precondition)", c.F, c.Delta+1)
	case c.Steps < 1:
		return fmt.Errorf("netsim: Steps = %d, need >= 1", c.Steps)
	}
	for _, ps := range [][]float64{c.GenP, c.ConP} {
		if len(ps) != 1 && len(ps) != c.N {
			return fmt.Errorf("netsim: probability slice length %d, need 1 or %d", len(ps), c.N)
		}
		for _, p := range ps {
			if p < 0 || p > 1 {
				return fmt.Errorf("netsim: probability %v outside [0,1]", p)
			}
		}
	}
	if err := c.Faults.validate(c.N); err != nil {
		return err
	}
	if c.Graph != nil {
		if c.Graph.N() != c.N {
			return fmt.Errorf("netsim: graph has %d vertices, config says %d", c.Graph.N(), c.N)
		}
		for v := 0; v < c.N; v++ {
			if c.Graph.Degree(v) == 0 {
				return fmt.Errorf("netsim: node %d has no neighbors to balance with", v)
			}
		}
	}
	return nil
}

func probAt(ps []float64, i int) float64 {
	if len(ps) == 1 {
		return ps[0]
	}
	return ps[i]
}

// NodeStats is one node's activity summary.
type NodeStats struct {
	FinalLoad    int
	Generated    int64
	Consumed     int64
	Initiated    int64 // balancing protocols started
	Completed    int64 // balancing protocols that transferred load
	Partners     int64 // partners balanced with, summed over completed protocols
	Aborted      int64 // protocols aborted: too few partners acked
	MessagesSent int64

	// Fault counters (all zero when faults are disabled).
	Dropped       int64 // control messages lost in transit to this node
	LostAtCrash   int64 // control messages lost because this node was down
	Delayed       int64 // messages that sat in this node's delay buffer
	Timeouts      int64 // collects ended by the reply timeout, aborted or not
	FreezeExpired int64 // freezes this node released by its own timeout
	Crashes       int64 // fail-stop windows this node entered
}

// Result is the outcome of a Run.
type Result struct {
	Nodes []NodeStats
}

// TotalLoad returns the sum of final loads.
func (r *Result) TotalLoad() int {
	sum := 0
	for _, n := range r.Nodes {
		sum += n.FinalLoad
	}
	return sum
}

// Spread returns max−min of final loads.
func (r *Result) Spread() int {
	lo, hi := r.Nodes[0].FinalLoad, r.Nodes[0].FinalLoad
	for _, n := range r.Nodes[1:] {
		if n.FinalLoad < lo {
			lo = n.FinalLoad
		}
		if n.FinalLoad > hi {
			hi = n.FinalLoad
		}
	}
	return hi - lo
}

// Completed returns the total completed balancing operations.
func (r *Result) Completed() int64 {
	var sum int64
	for _, n := range r.Nodes {
		sum += n.Completed
	}
	return sum
}

// Partners returns the partners the completed operations balanced with:
// Partners/Completed is the δ the run actually got, to hold against the
// configured one.
func (r *Result) Partners() int64 {
	var sum int64
	for _, n := range r.Nodes {
		sum += n.Partners
	}
	return sum
}

// Messages returns the total number of messages exchanged.
func (r *Result) Messages() int64 {
	var sum int64
	for _, n := range r.Nodes {
		sum += n.MessagesSent
	}
	return sum
}

// Conserved reports whether the final total load equals generated minus
// consumed packets — exact packet conservation, which must hold under any
// fault pattern because transfers are reliable.
func (r *Result) Conserved() bool {
	var gen, con int64
	for _, n := range r.Nodes {
		gen += n.Generated
		con += n.Consumed
	}
	return int64(r.TotalLoad()) == gen-con
}

// node is one simulated processor: its protocol machine plus the
// driver's bookkeeping around it.
type node struct {
	m     *proto.Machine
	rng   *rng.RNG // workload and partner draws; shared with the machine
	frng  *rng.RNG // fault draws for frames addressed to this node
	stats NodeStats

	stepsDone int
	protoAt   int64 // tick the in-flight protocol started
	frozeAt   int64 // tick this node froze
	candBuf   []int

	crashed    bool
	crashUntil int64   // tick at which a crashed node recovers
	crashPlan  []Crash // scheduled crashes not yet fired, by AtStep
}

// envelope is one frame in the mailbox.
type envelope struct {
	to  int
	msg wire.Msg
}

// network is the whole state of one run.
type network struct {
	cfg   *Config
	nodes []node
	now   int64
	// mail is a ring of delivery slots: mail[t%len(mail)] holds the
	// frames due at tick t, in send order. It is one slot longer than the
	// farthest a frame can be scheduled ahead, so the slot being
	// delivered is never appended to.
	mail     [][]envelope
	inFlight int // frames in mail
	stepping int // nodes with workload steps left
	effs     []proto.Effect
}

// Run executes the simulation and returns per-node statistics: every
// node performs its steps, and the run continues until the network is
// quiet.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(cfg.GenP) == 0 {
		cfg.GenP = []float64{0.5}
	}
	if len(cfg.ConP) == 0 {
		cfg.ConP = []float64{0.4}
	}
	s := &network{
		cfg:      &cfg,
		nodes:    make([]node, cfg.N),
		mail:     make([][]envelope, cfg.Faults.DelayMax+2),
		stepping: cfg.N,
	}
	master := rng.New(cfg.Seed)
	// Fault randomness derives from its own seed so the workload and
	// partner-selection streams stay byte-identical to a fault-free run
	// of the same Config.Seed.
	fmaster := rng.New(cfg.Faults.Seed ^ 0xfa17fa17fa17fa17)
	for i := range s.nodes {
		r := master.Split()
		s.nodes[i] = node{m: proto.New(i, cfg.F, r), rng: r, frng: fmaster.Split()}
	}
	for _, c := range cfg.Faults.Crashes {
		s.nodes[c.Node].crashPlan = append(s.nodes[c.Node].crashPlan, c)
	}
	for i := range s.nodes {
		plan := s.nodes[i].crashPlan
		sort.SliceStable(plan, func(a, b int) bool { return plan[a].AtStep < plan[b].AtStep })
	}
	for !s.quiet() {
		s.tick()
	}
	res := &Result{Nodes: make([]NodeStats, cfg.N)}
	for i := range s.nodes {
		s.nodes[i].stats.FinalLoad = s.nodes[i].m.Load()
		res.Nodes[i] = s.nodes[i].stats
	}
	publishObs(cfg.Obs, res)
	return res, nil
}

// publishObs aggregates a finished run's per-node totals into an obs
// registry: activity and fault counters under netsim_* names, plus the
// final load distribution (whose online moments give the variation
// density). Counters add, so repeated runs against one registry
// accumulate like repeated scrape intervals.
func publishObs(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	loads := reg.Histogram("netsim_final_load", obs.LoadBuckets)
	var s NodeStats
	for _, n := range res.Nodes {
		loads.Observe(float64(n.FinalLoad))
		s.Generated += n.Generated
		s.Consumed += n.Consumed
		s.Initiated += n.Initiated
		s.Completed += n.Completed
		s.Partners += n.Partners
		s.Aborted += n.Aborted
		s.MessagesSent += n.MessagesSent
		s.Dropped += n.Dropped
		s.LostAtCrash += n.LostAtCrash
		s.Delayed += n.Delayed
		s.Timeouts += n.Timeouts
		s.FreezeExpired += n.FreezeExpired
		s.Crashes += n.Crashes
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"netsim_generated_total", s.Generated},
		{"netsim_consumed_total", s.Consumed},
		{"netsim_protocols_initiated_total", s.Initiated},
		{"netsim_protocols_completed_total", s.Completed},
		{"netsim_op_partners_total", s.Partners},
		{"netsim_aborts_total", s.Aborted},
		{"netsim_msgs_total", s.MessagesSent},
		{"netsim_dropped_total", s.Dropped},
		{"netsim_lost_at_crash_total", s.LostAtCrash},
		{"netsim_delayed_total", s.Delayed},
		{"netsim_timeouts_total", s.Timeouts},
		{"netsim_freeze_expired_total", s.FreezeExpired},
		{"netsim_crashes_total", s.Crashes},
	} {
		reg.Counter(c.name).Add(c.v)
	}
}

// quiet is the termination condition: every node finished stepping,
// nothing is in flight, nobody is engaged. The machine's timeouts bound
// every engagement and crash windows are finite, so it is always reached.
func (s *network) quiet() bool {
	if s.stepping > 0 || s.inFlight > 0 {
		return false
	}
	for i := range s.nodes {
		if s.nodes[i].m.Engaged() {
			return false
		}
	}
	return true
}

// tick advances the virtual clock by one: deliver what is due, then give
// every node its turn. The turn order rotates with the clock so that no
// node id systematically wins same-tick freeze races.
func (s *network) tick() {
	s.now++
	slot := &s.mail[s.now%int64(len(s.mail))]
	for _, e := range *slot {
		s.deliver(e)
	}
	s.inFlight -= len(*slot)
	*slot = (*slot)[:0]
	n := len(s.nodes)
	for k := 0; k < n; k++ {
		s.turn(int((s.now + int64(k)) % int64(n)))
	}
}

// post hands a frame to the network. It is due next tick unless the
// fault layer, drawing from the receiver's fault stream, loses it
// (control frames only) or holds it back.
func (s *network) post(to int, msg wire.Msg) {
	nd, f := &s.nodes[to], &s.cfg.Faults
	if msg.Kind != wire.Transfer && nd.frng.Bernoulli(f.DropP) {
		nd.stats.Dropped++
		return
	}
	due := s.now + 1
	if f.DelayMax > 0 {
		if d := nd.frng.Intn(f.DelayMax + 1); d > 0 {
			nd.stats.Delayed++
			due += int64(d)
		}
	}
	slot := &s.mail[due%int64(len(s.mail))]
	*slot = append(*slot, envelope{to, msg})
	s.inFlight++
}

// deliver hands a due frame to its receiver's machine. A crashed node
// answers nothing — control frames are lost at it — but a transfer still
// lands on its persistent load counter, so packet conservation survives
// the crash.
func (s *network) deliver(e envelope) {
	nd := &s.nodes[e.to]
	if nd.crashed && e.msg.Kind != wire.Transfer {
		nd.stats.LostAtCrash++
		return
	}
	s.apply(e.to, nd.m.Handle(e.msg, s.effs[:0]))
}

// turn is node i's share of one tick: crash windows open and close, the
// machine's timeouts fire when overdue, and a live, unengaged node with
// steps left performs one.
func (s *network) turn(i int) {
	nd, f := &s.nodes[i], &s.cfg.Faults
	if nd.crashed {
		if s.now < nd.crashUntil {
			return
		}
		nd.crashed = false
	}
	if len(nd.crashPlan) > 0 && nd.stepsDone >= nd.crashPlan[0].AtStep {
		// Fail-stop: all protocol state vanishes with the node. An
		// initiator's frozen partners are NOT released — they must rescue
		// themselves via the freeze-expiry timeout.
		down := int64(nd.crashPlan[0].DownTicks)
		if down == 0 {
			down = defaultDownTicks
		}
		nd.crashPlan = nd.crashPlan[1:]
		nd.crashed, nd.crashUntil = true, s.now+down
		nd.stats.Crashes++
		nd.m.Crash()
		return
	}
	if nd.m.Inflight() && s.now-nd.protoAt > f.timeoutTicks() {
		s.apply(i, nd.m.ReplyTimeout(s.effs[:0]))
	}
	if nd.m.Frozen() && s.now-nd.frozeAt > f.freezeTicks() {
		s.apply(i, nd.m.FreezeExpired(s.effs[:0]))
	}
	if nd.stepsDone < s.cfg.Steps && !nd.m.Engaged() {
		s.step(i)
	}
}

// step performs one workload step and initiates if the trigger fires.
func (s *network) step(i int) {
	nd := &s.nodes[i]
	nd.stepsDone++
	if nd.stepsDone == s.cfg.Steps {
		s.stepping--
	}
	if nd.rng.Bernoulli(probAt(s.cfg.GenP, i)) {
		nd.m.Add(1)
		nd.stats.Generated++
	}
	if nd.rng.Bernoulli(probAt(s.cfg.ConP, i)) && nd.m.Load() > 0 {
		nd.m.Add(-1)
		nd.stats.Consumed++
	}
	if !nd.m.Trigger() {
		return
	}
	// Initiate with δ random partners, drawn from the whole network or,
	// when a topology is configured, from the node's graph neighborhood.
	if g := s.cfg.Graph; g == nil {
		nd.candBuf = nd.rng.SampleDistinct(s.cfg.N, s.cfg.Delta, i, nd.candBuf)
	} else if ns := g.Neighbors(i); s.cfg.Delta >= len(ns) {
		nd.candBuf = append(nd.candBuf[:0], ns...)
	} else {
		nd.candBuf = nd.rng.SampleDistinct(len(ns), s.cfg.Delta, -1, nd.candBuf)
		for k, idx := range nd.candBuf {
			nd.candBuf[k] = ns[idx]
		}
	}
	nd.protoAt = s.now
	nd.stats.Initiated++
	s.apply(i, nd.m.Initiate(nd.candBuf, 0, s.effs[:0]))
}

// apply carries out node i's effects: frames enter the mailbox, the
// rest feed the tick-clock timers and the activity counters.
func (s *network) apply(i int, effs []proto.Effect) {
	s.effs = effs[:0] // keep the grown buffer
	nd := &s.nodes[i]
	for k := range effs {
		e := &effs[k]
		switch e.Kind {
		case proto.Send:
			nd.stats.MessagesSent++
			s.post(e.To, e.Msg)
		case proto.Froze:
			nd.frozeAt = s.now
		case proto.Unfroze:
			if e.Reason == proto.ByExpiry {
				nd.stats.FreezeExpired++
			}
		case proto.Aborted:
			nd.stats.Aborted++
		case proto.Resolved:
			nd.stats.Completed++
			nd.stats.Partners += int64(e.Partners)
		}
		// Only a collect's end, Aborted or Resolved, carries Timeout.
		if e.Reason == proto.Timeout {
			nd.stats.Timeouts++
		}
	}
}
