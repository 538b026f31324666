// Package serve is the job-serving front-end of the cluster runtime:
// clients submit jobs to any node over TCP, submissions become load
// units the balancing protocol may move anywhere, and completion
// notifications stream back with end-to-end sojourn timestamps.
//
// Each cluster node gets one Server: a TCP listener on its own client
// port, separate from the node's cluster transport. A client connection
// speaks the wire client codec (wire.CSubmit / CAccepted / CDone). A
// CSubmit is assigned an origin-local job id, acknowledged, and pushed
// into the node's ingest channel (cluster.ServeHooks); the node turns
// it into load units tagged with job records. When the last unit of a
// job has been consumed — on any node — the node calls back into
// complete and the Server streams CDone to the submitting client with
// both server-side timestamps.
//
// The node goroutine must never block on a slow client: complete only
// touches the job table under a mutex and hands the CDone to the
// connection's writer goroutine through a buffered queue. If the queue
// is full (or the client is gone) the notification is dropped and
// counted — the job is still complete, the server's accounting is
// intact, only that client's stream is lossy. Conversely a client that
// disconnects mid-stream just stops receiving: its submitted jobs run
// to completion and the cluster's shutdown conservation audit is
// unaffected (see TestServeClientDisconnect).
package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

// ingestDepth is the submission buffer between the reader goroutines
// and the node loop. When it fills, readers block — per-connection TCP
// backpressure, the open-loop generator's signal that the node is
// saturated at ingest (not service) level.
const ingestDepth = 1024

// outboxDepth is the per-connection completion-notification queue. The
// node-side complete never blocks on it: overflow drops the CDone and
// counts it.
const outboxDepth = 4096

// writeBatchBytes ends a connection writer's batch: once this much is
// pending it writes without waiting for the outbox to run empty, so a
// client whose producers never pause still hears back in bounded time.
const writeBatchBytes = 4096

// Server is one node's client-facing front-end.
type Server struct {
	node   int
	ln     net.Listener
	ingest chan cluster.Submit
	quit   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
	nextID uint64
	jobs   map[uint64]*job
	conns  map[*srvConn]struct{}

	jobsAccepted   obs.Counter
	jobsCompleted  obs.Counter
	unitsAccepted  obs.Counter
	unitsCompleted obs.Counter
	donesDropped   obs.Counter    // CDone frames lost to a full outbox or a gone client
	acksDropped    obs.Counter    // CAccepted frames lost the same way
	connFrames     obs.Counter    // frames written to client connections
	connFlushes    obs.Counter    // socket writes that carried them
	inflightUnits  obs.Gauge      // units accepted, not yet completed
	ingestHWM      obs.Gauge      // ingest-channel depth high-water mark
	sojourn        *obs.Histogram // per-job end-to-end seconds, log buckets

	// Journey decomposition: per-unit sojourn split into its additive
	// components (see JourneySample for the taxonomy), a per-unit
	// whole-sojourn histogram the components must sum to, and the
	// hops-per-job distribution. All log-bucketed except hops.
	compIngestWait *obs.Histogram
	compQueue      *obs.Histogram
	compTransfer   *obs.Histogram
	compService    *obs.Histogram
	unitSojourn    *obs.Histogram
	hopsHist       *obs.Histogram
	journeys       *JourneyLog
}

// job is one accepted submission awaiting its remaining units.
type job struct {
	conn      *srvConn
	tag       uint64 // the client's id for the job, echoed on CDone
	units     int
	unitsLeft int
	at        time.Time
	submitNS  int64
	// journey accumulators across the job's units
	maxHops             int
	ingestWaitS, queueS float64
	transferS, serviceS float64
	stampedUnits        int
}

// srvConn is one client connection: a reader goroutine parsing frames
// and a writer goroutine draining the outbox.
type srvConn struct {
	nc   net.Conn
	out  chan wire.CMsg
	dead chan struct{}
	once sync.Once
}

func (c *srvConn) close() {
	c.once.Do(func() {
		close(c.dead)
		c.nc.Close()
	})
}

// NewServer listens on addr (e.g. "127.0.0.1:0") as node's serving
// front-end and starts accepting clients. reg, when non-nil, gets the
// per-node serving metrics (serve_sojourn_seconds histogram, in-flight
// gauge, accept/complete counters); the Server keeps its own live
// counters either way.
func NewServer(node int, addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: node %d listen %s: %w", node, addr, err)
	}
	s := &Server{
		node:   node,
		ln:     ln,
		ingest: make(chan cluster.Submit, ingestDepth),
		quit:   make(chan struct{}),
		jobs:   make(map[uint64]*job),
		conns:  make(map[*srvConn]struct{}),
	}
	s.journeys = NewJourneyLog(DefaultJourneyCapacity)
	if reg != nil {
		s.sojourn = reg.Histogram(SojournMetric(node), obs.SojournBuckets)
		label := fmt.Sprintf(`serve_jobs_inflight_units{node="%d"}`, node)
		reg.Attach(label, &s.inflightUnits)
		reg.Attach(fmt.Sprintf(`serve_jobs_accepted_total{node="%d"}`, node), &s.jobsAccepted)
		reg.Attach(fmt.Sprintf(`serve_jobs_completed_total{node="%d"}`, node), &s.jobsCompleted)
		reg.Attach(fmt.Sprintf(`serve_units_accepted_total{node="%d"}`, node), &s.unitsAccepted)
		reg.Attach(fmt.Sprintf(`serve_units_completed_total{node="%d"}`, node), &s.unitsCompleted)
		reg.Attach(fmt.Sprintf(`serve_dones_dropped_total{node="%d"}`, node), &s.donesDropped)
		reg.Attach(fmt.Sprintf(`serve_acks_dropped_total{node="%d"}`, node), &s.acksDropped)
		reg.Attach(fmt.Sprintf(`serve_conn_frames_total{node="%d"}`, node), &s.connFrames)
		reg.Attach(fmt.Sprintf(`serve_conn_flushes_total{node="%d"}`, node), &s.connFlushes)
		reg.Attach(fmt.Sprintf(`serve_ingest_hwm{node="%d"}`, node), &s.ingestHWM)
		s.compIngestWait = reg.Histogram(JourneyMetric(node, "ingest_wait"), obs.SojournBuckets)
		s.compQueue = reg.Histogram(JourneyMetric(node, "queue"), obs.SojournBuckets)
		s.compTransfer = reg.Histogram(JourneyMetric(node, "transfer"), obs.SojournBuckets)
		s.compService = reg.Histogram(JourneyMetric(node, "service"), obs.SojournBuckets)
		s.unitSojourn = reg.Histogram(UnitSojournMetric(node), obs.SojournBuckets)
		s.hopsHist = reg.Histogram(HopsMetric(node), HopBuckets)
	} else {
		s.sojourn = obs.NewHistogram(obs.SojournBuckets)
		s.compIngestWait = obs.NewHistogram(obs.SojournBuckets)
		s.compQueue = obs.NewHistogram(obs.SojournBuckets)
		s.compTransfer = obs.NewHistogram(obs.SojournBuckets)
		s.compService = obs.NewHistogram(obs.SojournBuckets)
		s.unitSojourn = obs.NewHistogram(obs.SojournBuckets)
		s.hopsHist = obs.NewHistogram(HopBuckets)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SojournMetric returns the registry name of one node's sojourn
// histogram.
func SojournMetric(node int) string {
	return fmt.Sprintf(`serve_sojourn_seconds{node="%d"}`, node)
}

// JourneyMetric returns the registry name of one node's per-unit
// journey-component histogram (component is one of "ingest_wait",
// "queue", "transfer", "service").
func JourneyMetric(node int, component string) string {
	return fmt.Sprintf(`serve_journey_seconds{component=%q,node="%d"}`, component, node)
}

// UnitSojournMetric returns the registry name of one node's per-unit
// whole-sojourn histogram — the sum the journey components decompose.
func UnitSojournMetric(node int) string {
	return fmt.Sprintf(`serve_unit_sojourn_seconds{node="%d"}`, node)
}

// HopsMetric returns the registry name of one node's hops-per-job
// histogram.
func HopsMetric(node int) string {
	return fmt.Sprintf(`serve_job_hops{node="%d"}`, node)
}

// HopBuckets bound the hops-per-job histogram: most units complete
// where they ingested (0 hops) or one migration away, with a tail for
// records that bounce during long overload episodes.
var HopBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// Addr returns the listener's address for clients to dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Hooks returns the node-side connection: the ingest stream and the
// per-unit completion callback, ready for cluster.Config.Serve.
func (s *Server) Hooks() *cluster.ServeHooks {
	return &cluster.ServeHooks{Ingest: s.ingest, Complete: s.complete}
}

// Sojourn exposes the live per-job sojourn histogram (seconds).
func (s *Server) Sojourn() *obs.Histogram { return s.sojourn }

// Journeys exposes the ring of recently completed journeys backing the
// /jobs debug endpoint.
func (s *Server) Journeys() *JourneyLog { return s.journeys }

// Stats is a Server's cumulative accounting.
type Stats struct {
	JobsAccepted   int64
	JobsCompleted  int64
	UnitsAccepted  int64
	UnitsCompleted int64
	DonesDropped   int64 // CDone frames lost to slow or vanished clients
	AcksDropped    int64 // CAccepted frames lost the same way
	ConnFrames     int64 // frames written to client connections
	ConnFlushes    int64 // socket writes that carried them
	InflightUnits  int64
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		JobsAccepted:   s.jobsAccepted.Value(),
		JobsCompleted:  s.jobsCompleted.Value(),
		UnitsAccepted:  s.unitsAccepted.Value(),
		UnitsCompleted: s.unitsCompleted.Value(),
		DonesDropped:   s.donesDropped.Value(),
		AcksDropped:    s.acksDropped.Value(),
		ConnFrames:     s.connFrames.Value(),
		ConnFlushes:    s.connFlushes.Value(),
		InflightUnits:  s.inflightUnits.Value(),
	}
}

// Close stops accepting, disconnects every client, and waits for the
// connection goroutines to exit. Jobs still in flight in the cluster
// stay in the table but their CDones have nowhere to go; call Close
// only after the run has drained (or when abandoning it).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.quit)
	err := s.ln.Close()
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &srvConn{nc: nc, out: make(chan wire.CMsg, outboxDepth), dead: make(chan struct{})}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(2)
		go s.readLoop(c)
		go s.writeLoop(c)
	}
}

// readLoop parses one connection's submissions until the client hangs
// up or sends garbage.
func (s *Server) readLoop(c *srvConn) {
	defer s.wg.Done()
	defer c.close()
	br := bufio.NewReader(c.nc)
	for {
		m, _, err := wire.ReadCFrame(br)
		if err != nil {
			// EOF, reset, or a codec violation: either way this client is
			// done submitting. Its accepted jobs keep running.
			s.dropConn(c)
			return
		}
		if m.Kind != wire.CSubmit {
			s.dropConn(c)
			return
		}
		if !s.submit(c, m) {
			return // server closing
		}
	}
}

// submit registers one job and pushes its units into the node's ingest
// stream. The push may block — that is the backpressure path — but
// never deadlocks: a closing server aborts it via quit.
func (s *Server) submit(c *srvConn, m wire.CMsg) bool {
	units := m.Units
	if units < 1 {
		units = 1
	}
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.nextID++
	id := s.nextID
	s.jobs[id] = &job{conn: c, tag: m.Job, units: units, unitsLeft: units, at: now, submitNS: now.UnixNano()}
	s.mu.Unlock()
	s.jobsAccepted.Inc()
	s.unitsAccepted.Add(int64(units))
	s.inflightUnits.Add(int64(units))
	// Ack first: the client's open-loop generator should see acceptance
	// latency, not queueing latency.
	s.enqueue(c, wire.CMsg{Kind: wire.CAccepted, Job: m.Job, Load: int(s.inflightUnits.Value())})
	select {
	case s.ingest <- cluster.Submit{ID: id, Units: units}:
		// High-water mark of the ingest buffer: how close the node came
		// to exerting TCP backpressure (depth == ingestDepth means it
		// did). Sampled after the send so an idle node reads 0.
		s.ingestHWM.Max(int64(len(s.ingest)))
		return true
	case <-s.quit:
		return false
	}
}

// complete is the node-side per-unit completion callback (runs on the
// node goroutine — must not block). It decomposes the unit's sojourn
// into its journey components and, on the job's last unit, samples the
// whole journey into the /jobs ring.
func (s *Server) complete(id uint64, jn cluster.Journey) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return
	}
	j.unitsLeft--
	done := j.unitsLeft == 0
	// Decompose this unit's sojourn. Every clock is server-side (origin
	// stamps ingest and done, consumer stamps consume), so the
	// components are deltas of comparable wall clocks; unstamped units
	// are skipped rather than observed as nonsense.
	parts, stamped := jn.Parts(j.submitNS)
	ingestWait, queue := seconds(parts.IngestWait), seconds(parts.Queue)
	transfer, service := seconds(parts.Transfer), seconds(parts.Service)
	if stamped {
		j.ingestWaitS += ingestWait
		j.queueS += queue
		j.transferS += transfer
		j.serviceS += service
		j.stampedUnits++
	}
	if jn.Hops > j.maxHops {
		j.maxHops = jn.Hops
	}
	if done {
		delete(s.jobs, id)
	}
	s.mu.Unlock()
	s.unitsCompleted.Inc()
	s.inflightUnits.Add(-1)
	if stamped {
		s.compIngestWait.Observe(ingestWait)
		s.compQueue.Observe(queue)
		s.compTransfer.Observe(transfer)
		s.compService.Observe(service)
		s.unitSojourn.Observe(seconds(max(0, jn.DoneNS-j.submitNS)))
	}
	if !done {
		return
	}
	s.jobsCompleted.Inc()
	s.hopsHist.Observe(float64(j.maxHops))
	now := time.Now()
	s.sojourn.Observe(now.Sub(j.at).Seconds())
	sample := JourneySample{
		Node: s.node, Job: id, Tag: j.tag, Units: j.units, Hops: j.maxHops,
		SubmitNS: j.submitNS, DoneNS: now.UnixNano(),
		Sojourn: now.Sub(j.at).Seconds(),
		Stamped: j.stampedUnits > 0,
	}
	if j.stampedUnits > 0 {
		per := 1 / float64(j.stampedUnits)
		sample.IngestWait = j.ingestWaitS * per
		sample.Queue = j.queueS * per
		sample.Transfer = j.transferS * per
		sample.Service = j.serviceS * per
	}
	s.journeys.Add(sample)
	s.enqueue(j.conn, wire.CMsg{Kind: wire.CDone, Job: j.tag, SubmitNS: j.submitNS, DoneNS: now.UnixNano()})
}

// seconds converts a nanosecond delta to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// enqueue hands a frame to the connection's writer without blocking;
// overflow and dead connections drop it, counted by what was lost: a
// dropped CDone is a completion the client never hears of, a dropped
// CAccepted only an ack.
func (s *Server) enqueue(c *srvConn, m wire.CMsg) {
	select {
	case <-c.dead:
	default:
		select {
		case c.out <- m:
			return
		default:
		}
	}
	if m.Kind == wire.CDone {
		s.donesDropped.Inc()
	} else {
		s.acksDropped.Inc()
	}
}

// writeLoop is one connection's writer goroutine; a write error hangs
// up on the client.
func (s *Server) writeLoop(c *srvConn) {
	defer s.wg.Done()
	if err := drainOutbox(c.nc, c.out, c.dead, &s.connFrames, &s.connFlushes); err != nil {
		c.close()
	}
}

// drainOutbox encodes frames from out into one pending buffer and
// writes it to w when the outbox is empty and the scheduler has nothing
// else to run: on finding the queue empty it yields once and looks
// again before writing. On an idle host the yield returns at once, so a
// lone frame waits on no timer and no further enqueue; under load the
// frames that runnable producers (a reader acking a burst of submits,
// node loops completing jobs) were about to enqueue join the batch
// instead of each costing a wakeup and a write. It returns nil when
// dead closes and the write error otherwise.
func drainOutbox(w io.Writer, out <-chan wire.CMsg, dead <-chan struct{}, frames, flushes *obs.Counter) error {
	var buf []byte
	var pending int64 // frames in buf
	for {
		select {
		case m := <-out:
			buf = wire.AppendCFrame(buf, m)
			pending++
			if len(buf) < writeBatchBytes {
				if len(out) > 0 {
					continue
				}
				runtime.Gosched()
				if len(out) > 0 {
					continue
				}
			}
			frames.Add(pending)
			flushes.Inc()
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf, pending = buf[:0], 0
		case <-dead:
			return nil
		}
	}
}

// dropConn forgets a finished connection (its writer exits via dead).
func (s *Server) dropConn(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}
