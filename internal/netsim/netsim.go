// Package netsim runs the message-passing realization deterministically:
// N cluster.Nodes — the node the TCP cluster runs, handshake, transfer
// acks and two-phase shutdown included — on a virtual tick clock, over
// mailbox transports, in one goroutine. A Result is a pure function of
// its Config. The package is only a scheduler and a fault layer (Faults)
// around the node's sans-IO surface (Deliver, Turn, Crash), plus the
// check that a world's flight recording (Record) replays to exactly its
// Result (Replay).
//
// The nodes' clock reads one nanosecond per tick. Each tick delivers the
// frames due, in send order, then gives every node a Turn, starting at
// node tick mod N so that no id systematically wins same-tick freeze
// races. A frame sent at tick t is due at t+1 (a control frame maybe
// later), so an operation costs three ticks and same-tick initiators
// genuinely collide. The run ends when the nodes' own shutdown does:
// node 0 has heard every Idle, broadcast Quit and summed every Bye.
// A driver that reads the nodes between ticks steps a World itself.
package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/flight"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
	"lmbalance/internal/wire"
)

// Config parameterizes a run. N, Delta, F, Steps, GenP, ConP, Seed,
// Graph, NoBalance, ServePerNode and Flight are cluster.ClusterConfig's:
// node i draws from rng.Mix64(Seed, i) and, with a Graph, balances
// within its neighbourhood. A serve-mode node takes submissions through
// Node.Ingest. Node i's flight recorder, if any, records the frames the
// node sends at its mailbox port, and every record on the world's
// goroutine, stamped with the tick: a world cannot drop a record, and
// its recording is a pure function of the Config. Flight must not be
// tapped. Record opens the recorders, each a segment ring in memory or
// on disk; Replay closes them after Result and holds the recording to
// it.
type Config struct {
	N            int
	Delta        int
	F            float64
	Steps        int
	GenP, ConP   []float64
	Seed         uint64
	Graph        *topology.Graph
	NoBalance    bool
	ServePerNode []*cluster.ServeHooks
	Flight       []*flight.Recorder
	// Faults arms the fault-injection layer; the zero value disables it.
	Faults Faults
	// Obs, if non-nil, is the nodes' registry (ClusterConfig.Obs: the
	// cluster_* counters, abort reasons included) and receives the run's
	// netsim_* totals at the end. The cluster_phase_seconds histograms
	// read a tick as 1 ns, so on netsim they carry no timing.
	Obs *obs.Registry
}

// FaultStats is the fault layer's account of one node.
type FaultStats struct {
	Dropped     int64 // control frames lost in transit to this node
	LostAtCrash int64 // control frames lost because this node was down
	Delayed     int64 // control frames held back on their way to this node
	Crashes     int64 // fail-stop windows this node entered
}

// Result is the outcome of a Run: the nodes' reports as a cluster run
// returns them (Elapsed counts ticks), and the fault layer's account.
type Result struct {
	cluster.Result
	Faults []FaultStats
}

// Lost returns the control frames lost in transit or at a crashed node.
func (r *Result) Lost() (sum int64) {
	for _, f := range r.Faults {
		sum += f.Dropped + f.LostAtCrash
	}
	return sum
}

// envelope is one frame in the mailbox.
type envelope struct {
	to  int
	msg wire.Msg
}

// port is one node's attachment to the network: its mailbox transport,
// and the fault layer's stream, crash schedule and account for it.
type port struct {
	net        *World
	rec        *flight.Recorder
	sent       int64    // handshake frames sent: the transport's MsgsSent
	rng        *rng.RNG // draws for the control frames addressed to this node
	plan       []Crash  // scheduled crashes not yet fired, by AtStep
	crashed    bool
	crashUntil int64 // tick at which a crashed node recovers
	stats      FaultStats
}

func (p *port) Send(to int, m wire.Msg) error {
	p.rec.RecordSend(p.net.now, to, m)
	if control(m.Kind) || m.Kind == wire.Transfer {
		p.sent++
	}
	p.net.post(to, m)
	return nil
}
func (p *port) Inbox() <-chan wire.Msg      { return nil }
func (p *port) Stats() wire.Stats           { return wire.Stats{MsgsSent: p.sent} }
func (p *port) PeerStats(id int) wire.Stats { return wire.Stats{} }
func (p *port) Close() error                { return nil }

// control reports whether k is one of the four kinds faults touch.
func control(k wire.Kind) bool {
	return k == wire.FreezeReq || k == wire.FreezeAck || k == wire.FreezeBusy || k == wire.Release
}

// World is the whole state of one run. Its driver calls Tick until
// Done, then Result once; Run is that loop. Between ticks the driver may
// read the nodes (Nodes): nothing else touches them.
type World struct {
	cfg   *Config
	nodes []*cluster.Node
	ports []port
	now   int64
	limit int64 // past this tick the run has lost its liveness
	// mail[t%len(mail)]: the frames due at tick t, in send order. One slot
	// past the farthest delay, so no slot grows while it is delivered.
	mail [][]envelope
}

// Run executes the simulation: every node performs its steps, and the
// run ends when the nodes' shutdown has retired them all.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		if err := s.Tick(); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}

// New builds the world of one run at tick 0, before any node's turn.
func New(cfg Config) (*World, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("netsim: N = %d, need >= 2", cfg.N)
	}
	if err := cfg.Faults.validate(cfg.N); err != nil {
		return nil, err
	}
	s := &World{cfg: &cfg, ports: make([]port, cfg.N),
		mail: make([][]envelope, cfg.Faults.DelayMax+2)}
	// One fault stream per receiving node, keyed off Faults.Seed apart
	// from the nodes' streams: arming faults shifts no workload draw.
	fp := rng.NewPartition(cfg.Faults.Seed)
	transports := make([]wire.Transport, cfg.N)
	for i := range s.ports {
		s.ports[i] = port{net: s, rng: fp.Stream(rng.StreamFault, uint64(i))}
		transports[i] = &s.ports[i]
	}
	crashes := slices.Clone(cfg.Faults.Crashes)
	slices.SortStableFunc(crashes, func(a, b Crash) int { return a.AtStep - b.AtStep })
	var down int64 // ticks the schedule keeps nodes down, crashing turns included
	for _, c := range crashes {
		s.ports[c.Node].plan = append(s.ports[c.Node].plan, c)
		down += 1 + int64(cmp.Or(c.DownTicks, defaultDownTicks))
	}
	reply, freeze := cfg.Faults.timeouts()
	nodes, err := cluster.NewNodes(cluster.ClusterConfig{
		N: cfg.N, Delta: cfg.Delta, F: cfg.F, Steps: cfg.Steps,
		GenP: cfg.GenP, ConP: cfg.ConP, Seed: cfg.Seed, Graph: cfg.Graph,
		NoBalance: cfg.NoBalance, ServePerNode: cfg.ServePerNode, Flight: cfg.Flight, Obs: cfg.Obs,
		Timeout: time.Duration(reply), FreezeTimeout: time.Duration(freeze),
	}, transports)
	if err != nil {
		return nil, err
	}
	s.nodes = nodes
	for i, rec := range cfg.Flight {
		s.ports[i].rec = rec
	}
	// A node steps on every live, unengaged turn, an engagement outlasts
	// no timeout, and each of the at most N·Steps operations freezes a
	// node once: a run past this tick has lost its liveness.
	s.limit = int64(cfg.Steps)*(1+int64(cfg.N)*(reply+freeze+2)) + 2*down +
		reply + freeze + int64(cfg.Faults.DelayMax) + 8
	return s, nil
}

// Done reports whether the shutdown is over: node 0 has summed every Bye.
func (s *World) Done() bool { return s.nodes[0].Finished() }

// Nodes returns the world's nodes, indexed by id.
func (s *World) Nodes() []*cluster.Node { return s.nodes }

// Result collects the nodes' reports and publishes the run's totals to
// Config.Obs. Call it once, after Done.
func (s *World) Result() *Result {
	n := len(s.nodes)
	res := &Result{Faults: make([]FaultStats, n)}
	res.Nodes, res.Elapsed = make([]cluster.Stats, n), time.Duration(s.now)
	for i, nd := range s.nodes {
		rep, _ := nd.Report() // a mailbox closes without error
		res.Nodes[i], res.Faults[i] = rep.Stats, s.ports[i].stats
		if rep.Summary != nil {
			res.Summary = *rep.Summary
		}
	}
	publishObs(s.cfg.Obs, res)
	return res
}

// publishObs adds what the nodes do not publish themselves to a registry
// under netsim_* names: the final load distribution, the handshake
// frames sent, the reply timeouts and the fault layer's account. Counters
// add, so repeated runs against one registry accumulate like repeated
// scrape intervals.
func publishObs(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	loads := reg.Histogram("netsim_final_load", obs.LoadBuckets)
	for i, n := range res.Nodes {
		f := &res.Faults[i]
		loads.Observe(float64(n.FinalLoad))
		reg.Counter("netsim_dropped_total").Add(f.Dropped)
		reg.Counter("netsim_lost_at_crash_total").Add(f.LostAtCrash)
		reg.Counter("netsim_delayed_total").Add(f.Delayed)
		reg.Counter("netsim_crashes_total").Add(f.Crashes)
	}
	reg.Counter("netsim_msgs_total").Add(res.Messages())
	reg.Counter("netsim_timeouts_total").Add(res.Timeouts())
}

// Tick advances the virtual clock by one: deliver what is due, then give
// every node its turn, in an order that rotates with the clock. It fails
// once the run is past the tick by which its shutdown must be over.
func (s *World) Tick() error {
	if s.now > s.limit {
		return fmt.Errorf("netsim: shutdown not over by tick %d", s.limit)
	}
	s.now++
	slot := &s.mail[s.now%int64(len(s.mail))]
	for i := range *slot {
		s.deliver(&(*slot)[i])
	}
	*slot = (*slot)[:0]
	n := len(s.nodes)
	for k := 0; k < n; k++ {
		s.turn(int((s.now + int64(k)) % int64(n)))
	}
	return nil
}

// post hands a frame to the network. It is due next tick unless it is a
// control frame and the fault layer, drawing from the receiver's stream,
// loses it or holds it back.
func (s *World) post(to int, msg wire.Msg) {
	p, f := &s.ports[to], &s.cfg.Faults
	due := s.now + 1
	if control(msg.Kind) {
		if p.rng.Bernoulli(f.DropP) {
			p.stats.Dropped++
			return
		}
		if f.DelayMax > 0 {
			if d := p.rng.Intn(f.DelayMax + 1); d > 0 {
				p.stats.Delayed++
				due += int64(d)
			}
		}
	}
	slot := &s.mail[due%int64(len(s.mail))]
	*slot = append(*slot, envelope{to, msg})
}

// deliver hands a due frame to its receiver. A crashed node loses control
// frames but takes every other: a transfer lands on its persistent load,
// so packet conservation survives the crash. A retired node is gone.
func (s *World) deliver(e *envelope) {
	p, nd := &s.ports[e.to], s.nodes[e.to]
	switch {
	case nd.Finished():
	case p.crashed && control(e.msg.Kind):
		p.stats.LostAtCrash++
	default:
		nd.Deliver(s.now, e.msg)
	}
}

// turn is node i's share of one tick: crash windows open and close, and
// a live node takes its Turn.
func (s *World) turn(i int) {
	p, nd := &s.ports[i], s.nodes[i]
	if nd.Finished() || p.crashed && s.now < p.crashUntil {
		return
	}
	p.crashed = false
	if len(p.plan) > 0 && nd.StepsDone() >= p.plan[0].AtStep {
		// Fail-stop: the node's protocol state vanishes, and an
		// initiator's frozen partners must rescue themselves by their
		// freeze-expiry timeout.
		p.crashed, p.crashUntil = true, s.now+int64(cmp.Or(p.plan[0].DownTicks, defaultDownTicks))
		p.plan = p.plan[1:]
		p.stats.Crashes++
		nd.Crash(s.now)
		return
	}
	nd.Turn(s.now)
}
