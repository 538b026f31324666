package cluster

import (
	"lmbalance/internal/proto"
	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
)

// Serving-path support: client job submissions become load units, load
// units carry job records, and completed units are routed back to the
// job's origin node. See internal/serve for the TCP front-end; this
// file is the node-side half.
//
// # Records ride the load
//
// In serve mode every load unit was created by a client submission, and
// each unit is tagged with a job record (wire.JobRef). Records live in
// a per-node FIFO parallel to the integer load count:
//
//   - ingest pushes one record per unit and bumps load;
//   - a consume step pops the oldest record with the unit it completes
//     (a consume draw with no record on hand is skipped — the unit's
//     record is still in flight, so the unit waits for its identity);
//   - balancing transfers ship records along with the load they move,
//     in the frame that moves it: the records of load an initiator hands
//     a partner ride that partner's Transfer, and those of load a
//     partner gives back ride its TransferAck. A receiver takes a
//     frame's records before acting on the frame itself.
//
// A payment goes out as JobMove frames only where no such frame can
// carry it: top-ups paid as records arrive (op 0), older debts to peers
// outside the operation, and the batches before the last when a payment
// exceeds wire.MaxJobsPerMsg — those precede the frame that carries the
// last batch on the same FIFO link. Either way a receiver sees the same
// records in the same order, ahead of the frame that moved their load.
//
// Globally Σrecords == Σload at all times: ingest and consume change
// both together, and migration moves both conservatively. Per node the
// two can diverge transiently — the protocol applies load deltas
// eagerly while records travel as messages — so each node tracks what
// it still owes per peer and settles from its record FIFO as records
// arrive (newest first, so the oldest jobs stay near their consume
// point and FCFS order is approximately preserved). Settlement is
// aggressive: a node pays whatever records it holds toward any debt,
// even below its own load, because every payment strictly shrinks the
// cluster-wide debt — chains and cycles of obligations drain to zero,
// and any leftover mutual debt is provably record-free and loadless
// (no job is behind it). The upshot: every ingested unit is eventually
// consumed next to a record, and every record is eventually popped —
// no job stalls forever with work outstanding.

// Submit is one accepted client job entering a node's ingest stream:
// Units load units tagged with the origin-local job id ID.
type Submit struct {
	ID    uint64
	Units int
}

// Journey is one unit's journey record, assembled at completion from
// the stamps its wire.JobRef accumulated (ingest time at the origin,
// hop count, summed per-hop in-flight time) plus the consume
// and completion-report stamps. Every stamp is a node's clock (unix
// nanos on the wall clock, ticks under netsim) — the origin stamps
// ingest, the consuming node stamps consume, the origin stamps done
// when the JobDone lands — so the decomposition needs no client clock
// sync. A unit whose records were never stamped carries zeros.
type Journey struct {
	Hops       int   // hops the unit's record took before being consumed
	IngestNS   int64 // origin's ingest stamp
	TransferNS int64 // accumulated in-flight time across hops
	ConsumeNS  int64 // consuming node's consume stamp
	DoneNS     int64 // origin's stamp when the completion landed
}

// JourneyParts is one unit's sojourn split into its additive
// components, in the nodes' clock units:
//
//	IngestWait  submission accepted → the origin ingested the unit
//	Queue       in some node's backlog, awaiting a consume draw
//	Transfer    on the wire between nodes, summed across hops
//	Service     consume draw → completion landed back at the origin
type JourneyParts struct {
	IngestWait, Queue, Transfer, Service int64
}

// Parts decomposes the unit's sojourn since its job was submitted at
// submitNS. Each component is clamped at zero against clock skew
// between nodes, so together they sum to DoneNS − submitNS up to that
// clamping. ok is false for a unit whose record carried no stamps.
func (j Journey) Parts(submitNS int64) (p JourneyParts, ok bool) {
	if j.IngestNS <= 0 || j.ConsumeNS <= 0 || j.DoneNS <= 0 {
		return p, false
	}
	return JourneyParts{
		IngestWait: max(0, j.IngestNS-submitNS),
		Queue:      max(0, j.ConsumeNS-j.IngestNS-j.TransferNS),
		Transfer:   max(0, j.TransferNS),
		Service:    max(0, j.DoneNS-j.ConsumeNS),
	}, true
}

// ServeHooks connects a node to a serving front-end. The wall-clock
// loop drains Ingest in every phase (stepping, mid-protocol, idle) so a
// submission is never blocked behind the balancing protocol; a driver
// of its own hands submissions over with Node.Ingest and leaves Ingest
// nil. The node calls Complete once per finished unit of a job that
// originated here — possibly consumed on a distant node and routed back
// via JobDone — with that unit's journey record. Complete is called from
// the node's driver: implementations must not block (internal/serve
// hands off to per-connection writer goroutines).
type ServeHooks struct {
	Ingest   <-chan Submit
	Complete func(id uint64, j Journey)
}

// jobOpSalt separates job op ids from balancing-operation ids.
const jobOpSalt = 0x6a6f625f6f70 // "job_op"

// JobOp derives the deterministic nonzero operation id for a job. A
// routed unit's JobDone and the origin's completion record carry it, so
// a job's completion reads out of a flight recording the way a
// balancing operation's timeline does.
func JobOp(origin int, id uint64) uint64 {
	op := rng.Mix64(jobOpSalt, rng.Mix64(uint64(origin), id))
	if op == 0 {
		op = 1
	}
	return op
}

// recCount returns the number of job records held.
func (n *Node) recCount() int { return len(n.recs) - n.recHead }

// pushRecord appends one record to the FIFO tail.
func (n *Node) pushRecord(r wire.JobRef) {
	n.recs = append(n.recs, r)
}

// popOldest removes the record at the FIFO head — the consume side.
func (n *Node) popOldest() wire.JobRef {
	r := n.recs[n.recHead]
	n.recHead++
	if n.recHead > 64 && n.recHead*2 >= len(n.recs) {
		n.recs = append(n.recs[:0], n.recs[n.recHead:]...)
		n.recHead = 0
	}
	return r
}

// popNewest removes the record at the FIFO tail — the migration side,
// keeping the oldest jobs near their local consume point.
func (n *Node) popNewest() wire.JobRef {
	r := n.recs[len(n.recs)-1]
	n.recs = n.recs[:len(n.recs)-1]
	return r
}

// ingestSubmit applies one client submission: Units load units, each
// tagged with the job's record. The server side has already stamped the
// submission time; from here the units are ordinary load the balancing
// protocol may move anywhere.
func (n *Node) ingestSubmit(s Submit) {
	if s.Units < 1 || n.cfg.Serve == nil {
		return
	}
	rec := wire.JobRef{Origin: n.cfg.ID, ID: s.ID, IngestNS: n.now}
	for i := 0; i < s.Units; i++ {
		n.pushRecord(rec)
	}
	n.m.Add(s.Units)
	if n.cfg.Flight != nil {
		n.cfg.Flight.Ingest(n.now, s.Units)
	}
	n.stats.Generated += int64(s.Units)
	n.stats.Ingested += int64(s.Units)
	n.met.generated.Add(int64(s.Units))
	n.met.ingested.Add(int64(s.Units))
	n.met.records.Set(int64(n.recCount()))
	n.met.loadGauge.Set(int64(n.m.Load()))
	// Fresh records may let pending debts settle.
	n.settleOwed(0, nil)
}

// completeOldest finishes one consumed unit: pop the oldest record and
// either complete it locally or route a JobDone to its origin, carrying
// the record's journey stamps either way.
func (n *Node) completeOldest() {
	rec := n.popOldest()
	n.met.records.Set(int64(n.recCount()))
	if rec.Origin == n.cfg.ID {
		n.serveComplete(rec.ID, Journey{
			Hops: rec.Hops, IngestNS: rec.IngestNS, TransferNS: rec.TransferNS,
			ConsumeNS: n.now, DoneNS: n.now,
		})
		return
	}
	n.send(rec.Origin, wire.Msg{
		Kind: wire.JobDone, Job: rec.ID, Op: JobOp(rec.Origin, rec.ID),
		IngestNS: rec.IngestNS, ConsumeNS: n.now,
		Hops: rec.Hops, TransferNS: rec.TransferNS,
	})
}

// serveComplete reports one finished unit of a job that originated at
// this node to the serving front-end.
func (n *Node) serveComplete(id uint64, j Journey) {
	n.stats.UnitsDone++
	n.met.unitsDone.Inc()
	if n.cfg.Flight != nil {
		n.cfg.Flight.Complete(n.now, JobOp(n.cfg.ID, id), id, j.Hops, j.DoneNS-j.IngestNS, j.TransferNS)
	}
	if n.cfg.Serve != nil && n.cfg.Serve.Complete != nil {
		n.cfg.Serve.Complete(id, j)
	}
}

// debt is job records owed to one peer.
type debt struct{ peer, k int }

// owe records that this node must ship k job records to peer p (its
// load was already moved by a transfer whose records it did not hold at
// the time, or are being shipped now by settleOwed).
func (n *Node) owe(p, k int) {
	if n.cfg.Serve == nil || k <= 0 {
		return
	}
	for i := range n.owed {
		if n.owed[i].peer == p {
			n.owed[i].k += k
			return
		}
	}
	n.owed = append(n.owed, debt{p, k})
}

// settleOwed pays as many outstanding record debts as the FIFO allows,
// oldest debt first and newest records first, in batches of at most
// MaxJobsPerMsg. ride holds the Send effects about to go out — an
// operation's Transfers, a give-back's TransferAck — and the last batch
// paid to a peer one of them reaches rides that frame; every other batch
// goes out now as a JobMove, ahead of it. The order is the node's own,
// so a driver that replays its events replays its payments. op, when
// nonzero, stamps the JobMoves with the balancing operation that created
// the debt (so the records show up on that operation's trace); later
// top-up payments go out with op 0.
func (n *Node) settleOwed(op uint64, ride []proto.Effect) {
	if len(n.owed) == 0 {
		return
	}
	left := n.owed[:0]
	for _, d := range n.owed {
		var carrier *wire.Msg
		for i := range ride {
			if ride[i].To == d.peer {
				carrier = &ride[i].Msg
			}
		}
		for d.k > 0 && n.recCount() > 0 {
			batch := min(d.k, wire.MaxJobsPerMsg, n.recCount())
			jobs := make([]wire.JobRef, batch)
			for i := range jobs {
				jobs[i] = n.popNewest()
			}
			d.k -= batch
			if carrier != nil && (d.k == 0 || n.recCount() == 0) {
				carrier.Jobs, carrier.SentNS = jobs, n.now
				break
			}
			n.send(d.peer, wire.Msg{
				Kind: wire.JobMove, Op: op, Jobs: jobs,
				SentNS: n.now,
			})
		}
		if d.k > 0 {
			left = append(left, d)
		}
	}
	n.owed = left
	n.met.records.Set(int64(n.recCount()))
}

// receiveJobs ingests the migrated records a JobMove carries, or a
// Transfer or TransferAck has on board. Each gains a hop and the frame's
// in-flight time (receive clock minus the sender's send stamp, clamped
// at zero against clock skew; an unstamped frame's hop contributes no
// transfer time rather than a bogus one). The records join the FIFO tail
// and may immediately settle this node's own debts (obligation chains
// and cycles drain this way). A frame without records is no payment and
// settles nothing.
func (n *Node) receiveJobs(m wire.Msg) {
	if n.cfg.Serve == nil || len(m.Jobs) == 0 {
		return
	}
	var flight int64
	if m.SentNS > 0 {
		if d := n.now - m.SentNS; d > 0 {
			flight = d
		}
	}
	for _, r := range m.Jobs {
		r.Hops++
		r.TransferNS += flight
		n.pushRecord(r)
	}
	n.met.records.Set(int64(n.recCount()))
	n.settleOwed(0, nil)
}

// handleJobDone completes one unit of a job that originated here but
// was consumed elsewhere, stamping the completion-report time that
// closes the unit's journey.
func (n *Node) handleJobDone(m wire.Msg) {
	if n.cfg.Serve == nil {
		return
	}
	n.serveComplete(m.Job, Journey{
		Hops: m.Hops, IngestNS: m.IngestNS, TransferNS: m.TransferNS,
		ConsumeNS: m.ConsumeNS, DoneNS: n.now,
	})
}
