package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/trace"
	"lmbalance/internal/wire"
)

// AbortAnatomyRow is one transport's decomposition of protocol
// outcomes at n=16, measured through the obs registry the cluster
// publishes into while it runs.
type AbortAnatomyRow struct {
	Transport string
	Initiated int64
	Completed int64
	AbortFrac float64
	// PartnersPerOp is the mean number of partners a completed operation
	// balanced with — the δ the run actually got (a busy partner drops
	// out of an operation instead of aborting it).
	PartnersPerOp float64
	// Aborts maps each cluster.Abort* reason to its count.
	Aborts map[string]int64
	// Dominant is the reason with the highest count ("" if no aborts).
	Dominant string
	// ReplyP50/P95, CollectP50/P95, FrozenP95 are protocol phase
	// latency quantiles in seconds (from the cluster_phase_seconds
	// histograms).
	ReplyP50, ReplyP95     float64
	CollectP50, CollectP95 float64
	FrozenP95              float64
}

// AbortAnatomyResult attributes the wire-level abort fraction at n=16
// over TCP to its cause. The same cluster and workload run over the
// in-memory loopback transport and over real TCP sockets; the
// per-reason abort counters say *what* kills the protocols, the phase
// histograms say *where the time goes*, and partners per op says what
// the collisions cost the operations that survive them: if collect
// (initiate → all replies) is orders of magnitude wider on TCP while
// aborts stay peer_frozen rather than timeout, the freeze window has
// become socket-latency wide and free-running initiators find every
// partner they ask already engaged — a collision problem, not a
// reliability problem.
type AbortAnatomyResult struct {
	N     int
	Steps int
	Delta int
	Rows  []AbortAnatomyRow
}

// AbortReasons lists every abort label in render order.
var abortReasons = []string{
	cluster.AbortPeerFrozen, cluster.AbortTimeout,
	cluster.AbortStaleEpoch, cluster.AbortLinkDown,
}

// AbortAnatomy runs the n=16 anatomy over both transports.
func AbortAnatomy(scale Scale, seed uint64) (*AbortAnatomyResult, error) {
	const n = 16
	steps := 800
	if scale == ScaleFull {
		steps = 4000
	}
	out := &AbortAnatomyResult{N: n, Steps: steps, Delta: 2}
	gen, con := hotQuarter(n)
	for _, tr := range []string{"inproc", "tcp"} {
		reg := obs.NewRegistry()
		transports, err := wire.LocalTransports(n, tr == "inproc")
		if err != nil {
			return nil, fmt.Errorf("abortanatomy %s: %w", tr, err)
		}
		res, err := cluster.RunCluster(cluster.ClusterConfig{
			N: n, Delta: out.Delta, F: 1.2, Steps: steps,
			GenP: gen, ConP: con, Seed: seed, Obs: reg,
		}, transports)
		if err != nil {
			return nil, fmt.Errorf("abortanatomy %s: %w", tr, err)
		}
		if !res.Conserved() {
			return nil, fmt.Errorf("abortanatomy %s: packet conservation violated", tr)
		}
		row := AbortAnatomyRow{
			Transport:     tr,
			Initiated:     res.Initiated(),
			Completed:     res.Completed(),
			AbortFrac:     abortFrac(res.Initiated(), res.Completed()),
			PartnersPerOp: ratio(res.Partners(), res.Completed()),
			Aborts:        make(map[string]int64, len(abortReasons)),
		}
		var best int64
		for _, reason := range abortReasons {
			c := reg.Counter(cluster.AbortMetric(reason)).Value()
			row.Aborts[reason] = c
			if c > best {
				best, row.Dominant = c, reason
			}
		}
		reply := reg.Histogram(`cluster_phase_seconds{phase="reply"}`, obs.LatencyBuckets)
		collect := reg.Histogram(`cluster_phase_seconds{phase="collect"}`, obs.LatencyBuckets)
		frozen := reg.Histogram(`cluster_phase_seconds{phase="frozen"}`, obs.LatencyBuckets)
		row.ReplyP50, row.ReplyP95 = reply.Quantile(0.5), reply.Quantile(0.95)
		row.CollectP50, row.CollectP95 = collect.Quantile(0.5), collect.Quantile(0.95)
		row.FrozenP95 = frozen.Quantile(0.95)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render writes the abort-anatomy tables and names the dominant cause.
func (r *AbortAnatomyResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf(
		"Abort anatomy (%d nodes, %d steps, δ=%d): what kills wire-level protocols",
		r.N, r.Steps, r.Delta)); err != nil {
		return err
	}
	tb := trace.NewTable("protocol outcomes by abort reason",
		"transport", "initiated", "completed", "abort frac", "partners per op",
		"peer_frozen", "timeout", "stale_epoch", "link_down")
	for _, row := range r.Rows {
		tb.AddRow(row.Transport, row.Initiated, row.Completed, row.AbortFrac, row.PartnersPerOp,
			row.Aborts[cluster.AbortPeerFrozen], row.Aborts[cluster.AbortTimeout],
			row.Aborts[cluster.AbortStaleEpoch], row.Aborts[cluster.AbortLinkDown])
	}
	if err := tb.WriteText(w); err != nil {
		return err
	}
	pt := trace.NewTable("protocol phase latency quantiles (µs)",
		"transport", "reply p50", "reply p95", "collect p50", "collect p95", "frozen p95")
	for _, row := range r.Rows {
		pt.AddRow(row.Transport,
			row.ReplyP50*1e6, row.ReplyP95*1e6,
			row.CollectP50*1e6, row.CollectP95*1e6,
			row.FrozenP95*1e6)
	}
	if err := pt.WriteText(w); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if row.Transport != "tcp" {
			continue
		}
		total := int64(0)
		for _, c := range row.Aborts {
			total += c
		}
		share := 0.0
		if total > 0 {
			share = float64(row.Aborts[row.Dominant]) / float64(total)
		}
		if _, err := fmt.Fprintf(w,
			"dominant abort cause at n=%d over tcp: %s (%.0f%% of %d aborts)\n",
			r.N, row.Dominant, share*100, total); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "a peer_frozen abort is a collect in which every partner asked was engaged: one\nbusy partner only costs an operation that partner (partners per op < δ), it\ntakes all of them to abort it. With a socket-latency-wide collect phase the\nnodes are engaged most of the time, so what is left is collision, not transport\nreliability — and most of its traffic is request/busy pairs (see ROADMAP).\n")
	return err
}
