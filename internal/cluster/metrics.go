package cluster

import (
	"fmt"

	"lmbalance/internal/obs"
)

// Abort reason labels, one per way a balancing protocol dies. They are
// what the faults experiment and the /metrics endpoint report.
const (
	// AbortPeerFrozen: every reply came in and too few partners acked to
	// balance with — the rest answered FreezeBusy, already frozen or
	// mid-protocol themselves. One busy partner does not abort an
	// operation that holds another; this is the collect that held nobody
	// (or fewer than f−1). The only abort cause that exists on an ideal
	// network.
	AbortPeerFrozen = "peer_frozen"
	// AbortTimeout: the reply timeout fired with too few acks in hand and
	// no further evidence — a partner is slow, dead, or its reply is still
	// in flight.
	AbortTimeout = "timeout"
	// AbortStaleEpoch: the reply timeout fired after a stale-epoch reply
	// (one carrying an old Seq) arrived — the partner answered a
	// protocol this initiator had already abandoned, so the two sides
	// chased each other across epochs.
	AbortStaleEpoch = "stale_epoch"
	// AbortLinkDown: the transport reported send errors during the
	// protocol — messages were dropped on the wire, so the missing
	// replies can never arrive.
	AbortLinkDown = "link_down"
)

// AbortReasons lists every abort reason, in render order.
var AbortReasons = [...]string{AbortPeerFrozen, AbortTimeout, AbortStaleEpoch, AbortLinkDown}

// Protocol phase labels for the cluster_phase_seconds histograms.
const (
	// PhaseReply: initiate → one partner's FreezeAck/FreezeBusy landing.
	PhaseReply = "reply"
	// PhaseCollect: initiate → all δ replies in (the collect concluded on
	// its last reply; one the reply timeout cut short is not timed).
	PhaseCollect = "collect"
	// PhaseTransferAck: Transfer sent → its TransferAck landing.
	PhaseTransferAck = "transfer_ack"
	// PhaseFrozen: a partner's freeze → its release, transfer, or expiry.
	PhaseFrozen = "frozen"
)

// nodeMetrics is one node's resolved instrumentation handles. The
// handles are looked up once in New and shared by every node pointed at
// the same registry (cmd/lbnode -spawn), so the counters and histograms
// are cluster-wide aggregates. With a nil registry every handle is nil
// and the whole instrumentation compiles down to no-ops.
type nodeMetrics struct {
	initiated     *obs.Counter
	completed     *obs.Counter
	opPartners    *obs.Counter // partners summed over completed operations
	freezeExpired *obs.Counter

	// Pacing instrumentation. rateLimited counts deferral episodes and
	// rateLimitedSteps the raw deferred trigger firings (one persistent
	// imbalance re-fires every step inside the gap window).
	rateLimited      *obs.Counter
	rateLimitedSteps *obs.Counter

	// generated/consumed are per-node (unlike the shared counters
	// above): together with the per-node load gauge they let an external
	// aggregator (obs.Aggregate) re-derive the cluster conservation
	// audit — Σ load == Σ generated − Σ consumed — from scrapes alone.
	// steps, per-node too, counts workload steps taken (see Stats.Steps).
	generated *obs.Counter
	consumed  *obs.Counter
	steps     *obs.Counter

	// Serving instrumentation (serve mode only): ingested counts load
	// units accepted from client submissions, unitsDone counts units
	// completed for jobs that originated on this node, and records is
	// the live job-record FIFO depth — its divergence from the load
	// gauge is the in-flight-records transient, the serving analog of
	// the conservation audit (Σ records == Σ load at quiescence).
	ingested  *obs.Counter
	unitsDone *obs.Counter
	records   *obs.Gauge

	abort map[string]*obs.Counter // keyed by the Abort* reasons

	phaseReply   *obs.Histogram
	phaseCollect *obs.Histogram
	phaseXfer    *obs.Histogram
	phaseFrozen  *obs.Histogram

	loadHist  *obs.Histogram // load observed once per workload step
	loadGauge *obs.Gauge     // this node's instantaneous load
}

func newNodeMetrics(reg *obs.Registry, id int) nodeMetrics {
	m := nodeMetrics{
		initiated:        reg.Counter("cluster_protocols_initiated_total"),
		completed:        reg.Counter("cluster_protocols_completed_total"),
		opPartners:       reg.Counter("cluster_op_partners_total"),
		freezeExpired:    reg.Counter("cluster_freeze_expired_total"),
		rateLimited:      reg.Counter("cluster_initiations_ratelimited_total"),
		rateLimitedSteps: reg.Counter("cluster_ratelimited_steps_total"),
		generated:        reg.Counter(fmt.Sprintf(`cluster_node_generated_total{node="%d"}`, id)),
		consumed:         reg.Counter(fmt.Sprintf(`cluster_node_consumed_total{node="%d"}`, id)),
		steps:            reg.Counter(fmt.Sprintf(`cluster_steps_total{node="%d"}`, id)),
		ingested:         reg.Counter(fmt.Sprintf(`cluster_node_ingested_total{node="%d"}`, id)),
		unitsDone:        reg.Counter(fmt.Sprintf(`cluster_node_units_done_total{node="%d"}`, id)),
		records:          reg.Gauge(fmt.Sprintf(`cluster_node_records{node="%d"}`, id)),
		abort:            make(map[string]*obs.Counter, len(AbortReasons)),
		phaseReply:       reg.Histogram(PhaseMetric(PhaseReply), obs.LatencyBuckets),
		phaseCollect:     reg.Histogram(PhaseMetric(PhaseCollect), obs.LatencyBuckets),
		phaseXfer:        reg.Histogram(PhaseMetric(PhaseTransferAck), obs.LatencyBuckets),
		phaseFrozen:      reg.Histogram(PhaseMetric(PhaseFrozen), obs.LatencyBuckets),
		loadHist:         reg.Histogram("cluster_load", obs.LoadBuckets),
		loadGauge:        reg.Gauge(LoadMetric(id)),
	}
	for _, reason := range AbortReasons {
		m.abort[reason] = reg.Counter(AbortMetric(reason))
	}
	return m
}

// AbortMetric returns the registry name of the abort counter for one
// reason, e.g. `cluster_aborts_total{reason="timeout"}`.
func AbortMetric(reason string) string {
	return fmt.Sprintf("cluster_aborts_total{reason=%q}", reason)
}

// PhaseMetric returns the registry name of one phase histogram, e.g.
// `cluster_phase_seconds{phase="collect"}`.
func PhaseMetric(phase string) string {
	return fmt.Sprintf("cluster_phase_seconds{phase=%q}", phase)
}

// LoadMetric returns the registry name of node id's load gauge, e.g.
// `cluster_node_load{node="3"}` (family obs.LoadGaugeBase).
func LoadMetric(id int) string {
	return fmt.Sprintf(`%s{node="%d"}`, obs.LoadGaugeBase, id)
}
