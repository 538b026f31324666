// Package cluster is the wire-level runtime of the balancing protocol:
// the freeze/ack/transfer state machine of internal/proto driven on the
// wall clock over any wire.Transport, so the same node code balances
// over in-memory loopback, real TCP sockets (cmd/lbnode), or any
// transport a downstream embedder provides.
//
// # Protocol
//
// The handshake itself — trigger, freeze, ±1 split, epochs, abort and
// backoff — is proto.Machine's (see that package's comment); a Node
// feeds it frames and timeouts and carries out its effects. What the
// node adds is everything a real network needs around the handshake:
//
//   - Transfers that move load are acknowledged (TransferAck). The
//     initiator must know when they have landed before it may declare
//     itself quiet, or shutdown could race a transfer and lose packets.
//     In serve mode the ack of a give-back (a negative Transfer) also
//     carries the job records of the load it returned, as the Transfer
//     carries those of the load it hands over. A zero-delta Transfer
//     only unfreezes its partner: no load rides on it, so it is neither
//     awaited nor answered.
//   - The node decides when the machine's reply timeout and
//     frozen-partner self-release are due, on its own clock: a live TCP
//     peer answers in microseconds, so a missing reply means a dead or
//     unreachable peer, not an unlucky scheduler slice.
//   - Shutdown is a distributed two-phase protocol. Phase one
//     (quiesce): each node that has
//     finished its steps, is not mid-protocol, and has no unacked
//     transfers sends Idle to the coordinator (node 0) — once — and
//     keeps serving as a balancing partner. Because a node only goes
//     Idle after its transfers are acked, and only stepping nodes
//     initiate, all transfers are applied before the last Idle arrives.
//     Phase two (retire): the coordinator broadcasts Quit; every node
//     answers Bye carrying its final load and lifetime generated and
//     consumed counts, then closes. The coordinator sums the Byes and
//     checks exact packet conservation across the cluster.
//   - Pacing, serve-mode job records, abort attribution and the
//     obs/flight instrumentation hang off the machine's effects.
//
// # Clock and drivers
//
// The node never reads a clock. Its driver sets its time, now (int64
// nanoseconds), before handing it an event, and every timer, timeout
// and serve-mode stamp reads that. Start runs the wall-clock driver: one
// goroutine whose loop sets now from the wall clock just before each
// dispatch, the only select and the only clock read in the node. A
// driver of its own — internal/netsim schedules N nodes on virtual time
// — uses the sans-IO surface instead: Deliver a frame, Ingest a client
// submission, give the node a Turn, Crash it, and collect its Report
// once Finished.
package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"lmbalance/internal/flight"
	"lmbalance/internal/obs"
	"lmbalance/internal/proto"
	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
)

// Defaults for the wall-clock knobs. The reply timeout is generous:
// on a healthy network replies arrive in microseconds, so it only
// fires when a peer is down, and a premature fire costs only an abort.
const (
	DefaultTimeout = 2 * time.Second
	DefaultTick    = 20 * time.Millisecond
)

// Config parameterizes one node of a cluster.
type Config struct {
	// ID is this node's identity, 0 <= ID < N. Node 0 coordinates the
	// shutdown protocol.
	ID int
	// N is the cluster size (>= 2).
	N int
	// Delta and F are the algorithm parameters (1 <= Delta < N, F > 1).
	Delta int
	F     float64
	// Steps is the number of workload steps this node performs.
	Steps int
	// GenP and ConP are this node's per-step generate/consume
	// probabilities (both may fire in one step, the paper's §7 model).
	GenP, ConP float64
	// Seed is the cluster-wide seed; the node draws from the stream
	// rng.New(rng.Mix64(Seed, ID)) so nodes are independent but the
	// whole cluster is reproducible from one number.
	Seed uint64
	// Neighbors, when non-empty, restricts this node's balancing partners
	// to these ids (the paper's locality extension: a graph
	// neighbourhood); δ of them are drawn uniformly, or all of them when
	// there are at most δ. Empty selects partners uniformly from all
	// other nodes (the paper's model).
	Neighbors []int
	// Transport carries the protocol. The node owns it and closes it
	// when the run ends.
	Transport wire.Transport
	// Timeout is the initiator's reply timeout; a protocol missing
	// replies for longer stops waiting and balances with the partners
	// that acked (or, with none to balance with, aborts and re-arms with
	// randomized backoff). 0 selects DefaultTimeout.
	Timeout time.Duration
	// FreezeTimeout is how long a frozen partner waits for its release
	// or transfer before unfreezing itself (the escape hatch when an
	// initiator dies mid-protocol). 0 selects 4×Timeout. A freeze
	// shorter than the initiator's collect plus the transfer's delivery
	// lets a late transfer land after the partner has released itself
	// and spent load: the partner's load can then go negative, although
	// conservation still holds.
	FreezeTimeout time.Duration
	// MinInitGap, when positive, is the minimum wall-clock interval
	// between this node's own balance initiations: a trigger that fires
	// sooner is deferred (the trigger condition re-evaluates on later
	// steps, so the initiation is delayed, not lost unless the load
	// recovers on its own). It paces initiation pressure on real
	// networks, where simultaneous initiators freeze each other into
	// near-total abort storms. 0 disables pacing.
	MinInitGap time.Duration
	// Pace selects the pacing policy. The zero value (PaceFixed)
	// enforces the MinInitGap floor; PaceOff ignores it.
	Pace PaceMode
	// Obs optionally attaches the node's instrumentation — per-reason
	// abort counters, per-phase latency histograms and the live load
	// distribution — to a registry (see
	// internal/obs and metrics.go). Nodes sharing one registry aggregate
	// into cluster-wide series. Nil disables instrumentation at ~zero
	// cost.
	Obs *obs.Registry
	// StepInterval, when positive, paces workload steps on the wall
	// clock: one step per interval instead of back-to-back. With ConP
	// as the per-step consume probability this fixes the node's service
	// capacity at ConP/StepInterval units per second — the knob that
	// makes an open-loop serving workload meaningful. 0 keeps the
	// original free-running behavior.
	StepInterval time.Duration
	// NoBalance disables balancing initiations (the node still answers
	// other initiators' requests — but with every node NoBalance, no
	// load ever moves). The serving baseline: what sojourn looks like
	// when every job runs where it landed.
	NoBalance bool
	// Stop, when non-nil, lets the embedder end the workload early:
	// when it is closed the node treats its remaining steps as done and
	// proceeds to the normal two-phase shutdown. The serving harness
	// uses it to end a wall-clock-paced run as soon as the offered work
	// has drained rather than paying for the full Steps bound.
	Stop <-chan struct{}
	// Serve, when non-nil, puts the node in serve mode: load units come
	// from client submissions (Ingest) instead of Bernoulli generation,
	// each unit carries a job record that migrates with balancing
	// transfers, and completed units are reported back per origin
	// (Complete) — see serve.go. Serve mode requires GenP == 0.
	Serve *ServeHooks
	// Flight optionally gives the node a black-box flight recorder (see
	// internal/flight): the node records each frame it processes, where it
	// processes it, and its own decisions, ingests and crashes, stamped
	// with its clock; the embedder records the frames it sends — a live
	// transport through Flight.Tap, netsim at its mailbox port. Every
	// record lands in the order the node acted, which is what lets
	// flight.Audit re-execute the stream. Nil disables recording at ~zero
	// cost.
	Flight *flight.Recorder
}

func (c *Config) validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("cluster: N = %d, need >= 2", c.N)
	case c.ID < 0 || c.ID >= c.N:
		return fmt.Errorf("cluster: ID = %d, need 0 <= ID < %d", c.ID, c.N)
	case c.Delta < 1 || c.Delta >= c.N:
		return fmt.Errorf("cluster: Delta = %d, need 1 <= Delta < N", c.Delta)
	case c.F <= 1:
		return fmt.Errorf("cluster: F = %v, need > 1", c.F)
	case c.F >= float64(c.Delta)+1:
		// An operation over k <= Delta partners needs F < k+1
		// (proto.Machine.conclude); past this bound none can complete.
		return fmt.Errorf("cluster: F = %v violates F < Delta+1 = %d (Theorem 1 precondition)", c.F, c.Delta+1)
	case c.Steps < 1:
		return fmt.Errorf("cluster: Steps = %d, need >= 1", c.Steps)
	case c.GenP < 0 || c.GenP > 1 || c.ConP < 0 || c.ConP > 1:
		return fmt.Errorf("cluster: probabilities (%v, %v) outside [0,1]", c.GenP, c.ConP)
	case c.Transport == nil:
		return fmt.Errorf("cluster: nil Transport")
	case c.Timeout < 0 || c.FreezeTimeout < 0 || c.MinInitGap < 0:
		return fmt.Errorf("cluster: negative timeout")
	case c.Pace != PaceFixed && c.Pace != PaceOff:
		return fmt.Errorf("cluster: unknown pace mode %d", int(c.Pace))
	case c.StepInterval < 0:
		return fmt.Errorf("cluster: negative StepInterval %v", c.StepInterval)
	case c.Serve != nil && c.GenP != 0:
		// In serve mode every load unit must carry a job record; an
		// anonymous Bernoulli unit would either strand a consume (no
		// record) or complete a job that was never submitted.
		return fmt.Errorf("cluster: Serve requires GenP == 0, got %v", c.GenP)
	}
	for _, v := range c.Neighbors {
		if v < 0 || v >= c.N || v == c.ID {
			return fmt.Errorf("cluster: node %d lists neighbour %d", c.ID, v)
		}
	}
	return nil
}

func (c *Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

func (c *Config) freezeTimeout() time.Duration {
	if c.FreezeTimeout > 0 {
		return c.FreezeTimeout
	}
	// Several reply timeouts, so the initiator's own abort (and its
	// explicit release) wins in the common case.
	return 4 * c.timeout()
}

// tick is how often the wall-clock loop checks the timeouts: at least
// every DefaultTick, a quarter reply timeout and half a freeze timeout.
func (c *Config) tick() time.Duration {
	return max(1, min(DefaultTick, c.timeout()/4, c.freezeTimeout()/2))
}

// Stats is one node's activity summary.
type Stats struct {
	ID        int
	FinalLoad int
	// Steps counts the workload steps actually taken. Under
	// StepInterval it is the number of step ticks delivered to the
	// loop — a ticker drops the ticks a busy host makes it miss — so
	// Steps over wall time is the node's delivered service rate, to be
	// read against its nominal 1/StepInterval.
	Steps     int64
	Generated int64
	Consumed  int64
	Initiated int64 // balancing protocols started
	Completed int64 // balancing protocols that transferred load
	// Partners sums, over completed protocols, the partners each balanced
	// with: a busy or silent partner drops out of an operation instead of
	// aborting it, so Partners/Completed — the δ the run actually got —
	// can sit below the configured Delta.
	Partners      int64
	Aborted       int64 // protocols aborted: too few partners acked
	Timeouts      int64 // collects ended by the reply timeout, aborted or not
	FreezeExpired int64 // freezes released by the partner's own timeout

	// Pacing accounting. RateLimited counts distinct deferral episodes:
	// maximal runs of consecutive trigger firings held back by the gap,
	// each ended by an actual initiation or by the imbalance resolving
	// on its own. RateLimitedSteps is the raw per-step deferral count —
	// one persistent imbalance re-fires the trigger every workload step
	// inside the gap window, so the raw count inflates by hundreds per
	// episode (the figure early EXPERIMENTS numbers quoted).
	RateLimited      int64
	RateLimitedSteps int64

	// Serving accounting (serve mode only, see serve.go).
	Ingested    int64 // load units accepted from client submissions
	UnitsDone   int64 // units completed for jobs that originated here
	RecordsHeld int64 // job records still in the FIFO at shutdown

	// Wire-level counters, from the transport.
	MsgsSent, MsgsRecv   int64
	BytesSent, BytesRecv int64
	SendErrors, Redials  int64
}

// Summary is the coordinator's cluster-wide accounting, summed from the
// Bye messages (plus its own counters).
type Summary struct {
	Nodes     int
	TotalLoad int64
	Generated int64
	Consumed  int64
}

// Conserved reports exact packet conservation: every generated packet
// is either consumed or still held by some node — none were lost or
// duplicated by balancing, in transit, or at shutdown.
func (s *Summary) Conserved() bool { return s.TotalLoad == s.Generated-s.Consumed }

// Report is the outcome of one node's run.
type Report struct {
	Stats Stats
	// Summary is non-nil only at the coordinator (node 0).
	Summary *Summary
}

// Node is one cluster node: the driver of one proto.Machine, run on the
// wall clock by Start or by a scheduler of its own through Deliver and
// Turn (see the package comment).
type Node struct {
	cfg   Config
	rng   *rng.RNG // workload and partner draws; shared with the machine
	opRNG *rng.RNG // dedicated stream for op ids; never touches workload draws
	done  chan struct{}
	rep   *Report
	err   error

	m    *proto.Machine // load, trigger and handshake state
	effs []proto.Effect // reused effect buffer
	now  int64          // the driver's clock, ns, set before each event

	// initiator-side driver state
	lastInitAt int64         // when the latest (possibly in-flight) protocol started
	epoch      atomic.Uint64 // mirrors the machine's epoch for cross-goroutine readers (Epoch)
	unacked    int           // transfers sent but not yet acknowledged
	peerErrsAt []int64       // per-partner link send errors at initiate (timeout attribution)
	xferSent   []int64       // Transfer send times awaiting ack, FIFO (metrics only)

	// partner-side driver state
	frozeAt int64

	// serving state (serve mode only, see serve.go)
	recs    []wire.JobRef // job-record FIFO parallel to the load count
	recHead int
	owed    []debt // records owed per peer after eager load moves, oldest debt first

	stepsDone int
	signaled  bool // Idle sent (or, coordinator: own quiescence recorded)
	finished  bool
	candBuf   []int         // the in-flight protocol's partners
	gap       time.Duration // the initiation floor in force: MinInitGap under PaceFixed, 0 under PaceOff
	deferring bool          // inside a deferral episode (consecutive paced-out triggers)
	stats     Stats
	met       nodeMetrics

	// coordinator-side shutdown state
	idleFrom map[int]bool
	quitSent bool
	byes     int
	sum      Summary
}

// New validates the configuration and prepares a node; Start launches it.
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rng.New(rng.Mix64(cfg.Seed, uint64(cfg.ID)))
	n := &Node{
		cfg: cfg,
		rng: r,
		m:   proto.New(cfg.ID, cfg.F, r),
		// Op ids come from their own stream, salted off the workload
		// stream's seed: minting an id must not perturb the Bernoulli
		// draws, or turning tracing on would change the run.
		opRNG: rng.New(rng.Mix64(rng.Mix64(cfg.Seed, uint64(cfg.ID)), opStreamSalt)),
		done:  make(chan struct{}),
		met:   newNodeMetrics(cfg.Obs, cfg.ID),
	}
	if cfg.Pace == PaceFixed {
		n.gap = cfg.MinInitGap
	}
	if cfg.ID == 0 {
		n.idleFrom = make(map[int]bool, cfg.N)
	}
	return n, nil
}

// opStreamSalt separates the op-id rng stream from the workload stream
// (which is seeded with Mix64(Seed, ID) directly).
const opStreamSalt = 0x6f705f6964 // "op_id"

// mintOp draws a fresh nonzero operation id. Ids are rng-derived, so a
// given (seed, node) mints the same id sequence on every run — traces
// are comparable across reruns — while distinct initiators collide with
// probability ~2^-64.
func (n *Node) mintOp() uint64 {
	for {
		if op := n.opRNG.Uint64(); op != 0 {
			return op
		}
	}
}

// ID returns this node's cluster id.
func (n *Node) ID() int { return n.cfg.ID }

// Epoch returns the node's current protocol epoch (the Seq stamped on
// its next initiation's messages). Safe to call from any goroutine —
// /healthz reports it live.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// Start launches the node's event loop in its own goroutine.
func (n *Node) Start() {
	go func() {
		defer close(n.done)
		n.loop()
		n.report()
	}()
}

// Wait blocks until the node has retired and returns its report. The
// transport is closed by the time Wait returns.
func (n *Node) Wait() (*Report, error) {
	<-n.done
	return n.rep, n.err
}

// Deliver hands the node one frame at time now: the sans-IO
// counterpart of the frame arriving on its Inbox.
func (n *Node) Deliver(now int64, m wire.Msg) {
	n.now = now
	n.handle(m)
}

// Ingest hands a serve-mode node one client submission at time now: the
// sans-IO counterpart of ServeHooks.Ingest.
func (n *Node) Ingest(now int64, s Submit) {
	n.now = now
	n.ingestSubmit(s)
}

// Turn gives the node one turn of its driver's schedule at time now:
// overdue timeouts fire, then an unengaged node with steps left takes
// one step, and a node done with its steps and quiet reports Idle
// (once).
func (n *Node) Turn(now int64) {
	n.now = now
	n.checkTimeouts()
	if !n.m.Engaged() && n.stepsDone < n.cfg.Steps && n.step() {
		n.triggered()
	}
	n.signalIdle()
}

// Crash fail-stops the node's protocol (proto.Machine.Crash) at time
// now: the operation in flight and the freeze it holds are forgotten,
// without a frame to the partners. Load, counters and unacknowledged
// transfers survive, as they would in stable storage.
func (n *Node) Crash(now int64) {
	n.now = now
	n.m.Crash()
	n.cfg.Flight.Crash(now)
}

// StepsDone returns the workload steps the node has taken.
func (n *Node) StepsDone() int { return n.stepsDone }

// Load returns the node's current load. Like StepsDone, it may only be
// called from the goroutine that drives the node.
func (n *Node) Load() int { return n.m.Load() }

// Finished reports whether the node has retired through the two-phase
// shutdown.
func (n *Node) Finished() bool { return n.finished }

// Report closes the transport and returns the node's report — for a
// node run through Deliver and Turn, what Wait returns for a started
// one.
func (n *Node) Report() (*Report, error) {
	n.report()
	return n.rep, n.err
}

// report closes the transport and assembles the final Report. Close
// comes first: a link still dialing writes what it holds (the Bye may
// be among it), so only afterwards are the traffic counters final.
func (n *Node) report() {
	if err := n.cfg.Transport.Close(); err != nil && n.err == nil {
		n.err = err
	}
	n.stats.ID = n.cfg.ID
	n.stats.FinalLoad = n.m.Load()
	n.stats.RecordsHeld = int64(n.recCount())
	ws := n.cfg.Transport.Stats()
	n.stats.MsgsSent, n.stats.MsgsRecv = ws.MsgsSent, ws.MsgsRecv
	n.stats.BytesSent, n.stats.BytesRecv = ws.BytesSent, ws.BytesRecv
	n.stats.SendErrors, n.stats.Redials = ws.SendErrors, ws.Redials
	n.cfg.Flight.Final(n.now, n.m.Load(), n.stats.Generated, n.stats.Consumed,
		n.stats.Ingested, n.stats.UnitsDone, n.stats.RecordsHeld)
	n.rep = &Report{Stats: n.stats}
	if n.cfg.ID == 0 {
		s := n.sum
		s.Nodes = n.cfg.N
		s.TotalLoad += int64(n.m.Load())
		s.Generated += n.stats.Generated
		s.Consumed += n.stats.Consumed
		n.rep.Summary = &s
	}
}

// send stamps and transmits one message; transport-level delivery
// failures are counted by the transport, not surfaced per message.
func (n *Node) send(to int, m wire.Msg) {
	m.From = n.cfg.ID
	// Send errors only on a closed transport or bad peer id; neither
	// can happen while the loop runs, but stay defensive.
	_ = n.cfg.Transport.Send(to, m)
}

// loop is the wall-clock driver: every wait in it is a select that
// drains the inbox too, and it wakes on wall-clock ticks to check the
// machine's timeouts. The one place it blocks without draining is a
// send, inside the transport, while a peer's socket buffer is full. In
// serve mode the client ingest channel is drained in every phase —
// stepping, mid-protocol, idle — so a submission never waits on the
// balancing protocol. The node's clock is unix nanoseconds, read off the
// monotonic clock from one wall-clock anchor just before each dispatch.
func (n *Node) loop() {
	ticker := time.NewTicker(n.cfg.tick())
	defer ticker.Stop()
	inbox := n.cfg.Transport.Inbox()
	var ingest <-chan Submit // nil channel blocks forever when not serving
	if n.cfg.Serve != nil {
		ingest = n.cfg.Serve.Ingest
	}
	stop := n.cfg.Stop
	var stepC <-chan time.Time
	if n.cfg.StepInterval > 0 {
		stepTicker := time.NewTicker(n.cfg.StepInterval)
		defer stepTicker.Stop()
		stepC = stepTicker.C
	}
	anchor := time.Now()
	anchorNS := anchor.UnixNano()
	clock := func() { n.now = anchorNS + int64(time.Since(anchor)) }
	for !n.finished {
		// Serve everything already queued.
		draining := true
		for draining && !n.finished {
			select {
			case m := <-inbox:
				clock()
				n.handle(m)
			case s := <-ingest:
				clock()
				n.ingestSubmit(s)
			default:
				draining = false
			}
		}
		if n.finished {
			return
		}
		// A closed Stop ends the workload: the remaining steps count as
		// done and the node heads into the normal two-phase shutdown.
		// (Nil-ed after firing so the closed channel cannot win every
		// select below.)
		if stop != nil {
			select {
			case <-stop:
				n.stepsDone = n.cfg.Steps
				stop = nil
			default:
			}
		}
		// Mid-protocol, a node makes no workload progress but keeps
		// draining so nobody stalls on it, and keeps the timeouts
		// breathing. A stepping node steps back-to-back or, under
		// StepInterval, on the step tick. A node done stepping reports
		// Idle once quiet, then serves as a balancing partner until the
		// coordinator retires it.
		var stepNow <-chan time.Time
		switch {
		case n.m.Engaged():
		case n.stepsDone < n.cfg.Steps:
			if stepC == nil {
				// Back-to-back steps read the clock only where it is
				// needed: serve-mode consume stamps and an initiation.
				if n.cfg.Serve != nil {
					clock()
				}
				if n.step() {
					clock()
					n.triggered()
				}
				continue
			}
			stepNow = stepC
		default:
			n.signalIdle()
		}
		select {
		case m := <-inbox:
			clock()
			n.handle(m)
		case s := <-ingest:
			clock()
			n.ingestSubmit(s)
		case <-stepNow:
			clock()
			if n.step() {
				n.triggered()
			}
		case <-ticker.C:
			clock()
			n.checkTimeouts()
		}
	}
}

// signalIdle is phase one of the shutdown: once the node has finished
// its steps, is not mid-protocol and has every transfer acknowledged, it
// reports Idle to the coordinator — once (the coordinator records its
// own quiescence instead).
func (n *Node) signalIdle() {
	if n.signaled || n.unacked > 0 || n.m.Engaged() || n.stepsDone < n.cfg.Steps {
		return
	}
	n.signaled = true
	if n.cfg.ID == 0 {
		n.maybeQuit()
	} else {
		n.send(0, wire.Msg{Kind: wire.Idle})
	}
}

// checkTimeouts fires the machine's reply timeout and frozen-partner
// self-release once they are overdue on the node's clock.
func (n *Node) checkTimeouts() {
	if n.m.Inflight() && n.now-n.lastInitAt > int64(n.cfg.timeout()) {
		n.apply(n.m.ReplyTimeout(n.effs[:0]))
	}
	if n.m.Frozen() && n.now-n.frozeAt > int64(n.cfg.freezeTimeout()) {
		n.apply(n.m.FreezeExpired(n.effs[:0]))
	}
}

// partnerLinkErrored reports whether the transport dropped messages on
// the link to any partner of the in-flight protocol since initiate.
// Only those links matter: a failed send to an unrelated peer (another
// protocol's release, shutdown traffic) says nothing about why *this*
// protocol's replies are missing, and counting it would mislabel a
// plain timeout as link_down.
func (n *Node) partnerLinkErrored() bool {
	for i, c := range n.candBuf {
		if n.cfg.Transport.PeerStats(c).SendErrors > n.peerErrsAt[i] {
			return true
		}
	}
	return false
}

// step performs one workload step and reports whether the trigger fired;
// the driver then calls triggered, with the time set.
func (n *Node) step() bool {
	n.stepsDone++
	n.stats.Steps++
	n.met.steps.Inc()
	if n.rng.Bernoulli(n.cfg.GenP) {
		n.m.Add(1)
		n.stats.Generated++
		n.met.generated.Inc()
	}
	// Serve mode: a consume completes a specific job unit, so it needs a
	// record on hand. A unit whose record is still in flight (a debt its
	// new holder has yet to be paid) simply waits — the skipped draw
	// costs one service slot, it cannot lose work.
	if n.rng.Bernoulli(n.cfg.ConP) && n.m.Load() > 0 && (n.cfg.Serve == nil || n.recCount() > 0) {
		n.m.Add(-1)
		n.stats.Consumed++
		n.met.consumed.Inc()
		if n.cfg.Serve != nil {
			n.completeOldest()
		}
	}
	n.met.loadGauge.Set(int64(n.m.Load()))
	if n.cfg.NoBalance {
		return false
	}
	if !n.m.Trigger() {
		// No pressure to initiate: any deferral episode is over (the
		// imbalance resolved on its own, through consumption or an
		// inbound transfer).
		n.deferring = false
		return false
	}
	return true
}

// triggered follows a step whose trigger fired. Pacing: a trigger inside
// the gap since the last initiation is deferred, not serviced — the
// condition re-fires on a later step while the load imbalance persists.
// Consecutive deferred steps form one episode.
func (n *Node) triggered() {
	if n.gap > 0 && n.stats.Initiated > 0 && n.now-n.lastInitAt < int64(n.gap) {
		n.stats.RateLimitedSteps++
		n.met.rateLimitedSteps.Inc()
		if !n.deferring {
			n.deferring = true
			n.stats.RateLimited++
			n.met.rateLimited.Inc()
		}
		return
	}
	n.deferring = false
	n.initiate()
}

// initiate starts a balancing protocol with δ random partners: the
// driver samples them — from all other nodes, or from its Neighbors —
// mints the op id and snapshots the link-error counters the timeout
// attribution compares against.
func (n *Node) initiate() {
	if ns := n.cfg.Neighbors; len(ns) == 0 {
		n.candBuf = n.rng.SampleDistinct(n.cfg.N, n.cfg.Delta, n.cfg.ID, n.candBuf)
	} else if n.cfg.Delta >= len(ns) {
		n.candBuf = append(n.candBuf[:0], ns...)
	} else {
		n.candBuf = n.rng.SampleDistinct(len(ns), n.cfg.Delta, -1, n.candBuf)
		for k, idx := range n.candBuf {
			n.candBuf[k] = ns[idx]
		}
	}
	op := n.mintOp()
	n.lastInitAt = n.now
	n.peerErrsAt = n.peerErrsAt[:0]
	for _, c := range n.candBuf {
		n.peerErrsAt = append(n.peerErrsAt, n.cfg.Transport.PeerStats(c).SendErrors)
	}
	effs := n.m.Initiate(n.candBuf, op, n.effs[:0])
	seq := n.m.Seq()
	n.epoch.Store(seq)
	n.stats.Initiated++
	n.met.initiated.Inc()
	if n.cfg.Flight != nil {
		n.cfg.Flight.Initiate(n.now, op, seq, n.m.Load(), len(n.candBuf), n.cfg.F)
	}
	n.apply(effs)
}

// apply carries out the machine's effects in order, hanging the
// driver's accounting — stats, metrics, flight records,
// serve-mode record debts — on each.
func (n *Node) apply(effs []proto.Effect) {
	n.effs = effs[:0] // keep the grown buffer
	for i := range effs {
		e := &effs[i]
		switch e.Kind {
		case proto.Send:
			n.send(e.To, e.Msg)
			// Only a transfer that moves load is awaited: the partner does
			// not acknowledge a zero-delta one (see handle).
			if e.Msg.Kind == wire.Transfer && e.Msg.Amount != 0 {
				n.unacked++
				if n.met.phaseXfer != nil {
					n.xferSent = append(n.xferSent, n.now)
				}
			}

		case proto.Froze:
			n.frozeAt = n.now

		case proto.Unfroze:
			n.observeSince(n.met.phaseFrozen, n.frozeAt)
			if e.Reason == proto.ByExpiry {
				n.stats.FreezeExpired++
				n.met.freezeExpired.Inc()
				if n.cfg.Flight != nil {
					n.cfg.Flight.FreezeExpired(n.now, e.Op, e.Peer)
				}
			}

		case proto.Aborted:
			n.onAborted(e)

		case proto.Resolved:
			n.onResolved(e, effs[i+1:i+1+e.Partners])
		}
	}
}

// collectEnded accounts for how the node's own collect ended, whichever
// way the operation then went: the reply timeout bumps the epoch and is
// counted; a collect that ran to its last reply is timed.
func (n *Node) collectEnded(e *proto.Effect) {
	if e.Reason == proto.Timeout {
		n.stats.Timeouts++
		n.epoch.Store(n.m.Seq())
		return
	}
	n.observeSince(n.met.phaseCollect, n.lastInitAt)
}

// observeSince records the seconds from t0 to now in a phase histogram.
func (n *Node) observeSince(h *obs.Histogram, t0 int64) {
	h.Observe(time.Duration(n.now - t0).Seconds())
}

// onAborted accounts for the node's own protocol dying. A timeout is
// attributed before anything else: send errors on a protocol partner's
// link during the protocol mean the wire ate our messages; otherwise a
// stale-epoch reply means the partner answered a protocol we had
// already abandoned; otherwise it is a plain missing reply.
func (n *Node) onAborted(e *proto.Effect) {
	n.stats.Aborted++
	n.collectEnded(e)
	reason := AbortPeerFrozen
	if e.Reason == proto.Timeout {
		switch {
		case n.partnerLinkErrored():
			reason = AbortLinkDown
		case e.Stale:
			reason = AbortStaleEpoch
		default:
			reason = AbortTimeout
		}
	}
	n.met.abort[reason].Inc()
	if n.cfg.Flight != nil {
		n.cfg.Flight.Abort(n.now, e.Op, e.Seq, e.Load, reason)
	}
}

// onResolved accounts for the node's own protocol balancing with the
// partners that acked; transfers are the Transfer sends about to go
// out, one per such partner. The flight record lands first, so a
// replayed stream sees the resolution before the frames it explains.
func (n *Node) onResolved(e *proto.Effect, transfers []proto.Effect) {
	n.collectEnded(e)
	if n.cfg.Flight != nil {
		n.cfg.Flight.Resolve(n.now, e.Op, e.Seq, e.Load, e.Partners, e.Reason == proto.Timeout)
	}
	// Serve mode: record the records owed to partners that gain load and
	// pay what the FIFO holds now, each partner's last batch riding its
	// Transfer (partners that give load back will owe us on receipt; see
	// serve.go for why eager settlement always converges).
	if n.cfg.Serve != nil {
		for i := range transfers {
			n.owe(transfers[i].To, transfers[i].Msg.Amount)
		}
		n.settleOwed(e.Op, transfers)
	}
	n.stats.Completed++
	n.stats.Partners += int64(e.Partners)
	n.met.completed.Inc()
	n.met.opPartners.Add(int64(e.Partners))
	n.met.loadGauge.Set(int64(e.Load))
}

// handle processes one incoming message: handshake frames go to the
// machine, everything else — transfer acks, shutdown, job records — is
// the driver's own.
func (n *Node) handle(m wire.Msg) {
	if m.From < 0 || m.From >= n.cfg.N || m.From == n.cfg.ID {
		return // not from a cluster member; ignore
	}
	if n.cfg.Flight != nil {
		n.cfg.Flight.RecordRecv(n.now, m)
	}
	switch m.Kind {
	case wire.FreezeAck, wire.FreezeBusy:
		if n.m.Expects(m) {
			n.observeSince(n.met.phaseReply, n.lastInitAt)
		}
		n.apply(n.m.Handle(m, n.effs[:0]))

	case wire.FreezeReq, wire.Release:
		n.apply(n.m.Handle(m, n.effs[:0]))

	case wire.Transfer:
		// Records on board land first, as a JobMove ahead of the frame
		// would. The machine applies the delta (always — conservation
		// depends on it); the driver acknowledges every transfer that
		// moved load so the initiator can account for it. A zero-delta
		// transfer moved nothing — it only ended the freeze — and the
		// initiator is not waiting on it.
		n.receiveJobs(m)
		n.apply(n.m.Handle(m, n.effs[:0]))
		if m.Amount == 0 {
			return
		}
		// Serve mode, give-back transfer: the load just left for the
		// initiator, so its records are owed there; the last batch rides
		// the ack.
		ack := [1]proto.Effect{{Kind: proto.Send, To: m.From,
			Msg: wire.Msg{Kind: wire.TransferAck, Seq: m.Seq, Op: m.Op}}}
		if n.cfg.Serve != nil && m.Amount < 0 {
			n.owe(m.From, -m.Amount)
			n.settleOwed(m.Op, ack[:])
		}
		n.send(m.From, ack[0].Msg)
		n.met.loadGauge.Set(int64(n.m.Load()))

	case wire.TransferAck:
		n.receiveJobs(m)
		if n.unacked > 0 {
			n.unacked--
			// Acks within one protocol land in near-send order, so FIFO
			// pairing against the send times is exact enough for the
			// transfer_ack phase histogram.
			if len(n.xferSent) > 0 {
				n.observeSince(n.met.phaseXfer, n.xferSent[0])
				copy(n.xferSent, n.xferSent[1:])
				n.xferSent = n.xferSent[:len(n.xferSent)-1]
			}
		}

	case wire.Idle:
		if n.cfg.ID == 0 && !n.idleFrom[m.From] {
			n.idleFrom[m.From] = true
			n.maybeQuit()
		}

	case wire.Quit:
		if m.From == 0 && n.cfg.ID != 0 {
			n.send(0, wire.Msg{Kind: wire.Bye,
				Load: n.m.Load(), Gen: n.stats.Generated, Con: n.stats.Consumed})
			n.finished = true
		}

	case wire.JobMove:
		n.receiveJobs(m)

	case wire.JobDone:
		n.handleJobDone(m)

	case wire.Bye:
		if n.cfg.ID == 0 && n.quitSent {
			n.sum.TotalLoad += int64(m.Load)
			n.sum.Generated += m.Gen
			n.sum.Consumed += m.Con
			n.byes++
			if n.byes == n.cfg.N-1 {
				n.finished = true
			}
		}
	}
}

// maybeQuit (coordinator only) broadcasts Quit once every node —
// itself included — has gone idle.
func (n *Node) maybeQuit() {
	if n.quitSent || !n.signaled || len(n.idleFrom) != n.cfg.N-1 {
		return
	}
	n.quitSent = true
	for i := 1; i < n.cfg.N; i++ {
		n.send(i, wire.Msg{Kind: wire.Quit})
	}
}
