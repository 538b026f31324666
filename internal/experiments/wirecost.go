package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
	"lmbalance/internal/trace"
	"lmbalance/internal/wire"
)

// WireCostRow is one (transport, δ) configuration's measurement.
type WireCostRow struct {
	Name        string
	Spread      int
	Initiated   int64   // balancing operations started
	Ops         int64   // completed balancing operations
	MsgsPerOp   float64 // wire messages per completed operation
	BytesPerOp  float64 // wire bytes per completed operation
	BytesPerMsg float64 // mean message size on the wire
	AbortedFrac float64
	// PartnersPerOp is the mean number of partners a completed operation
	// balanced with — the δ the run actually got (a busy partner drops
	// out of an operation instead of aborting it).
	PartnersPerOp float64
	// Aborts maps each cluster.AbortReasons entry to its count, read off
	// the run's registry.
	Aborts map[string]int64
	// Dominant is the reason with the highest count ("" if no aborts).
	Dominant string
	// ReplyP50/P95, CollectP50/P95, FrozenP95 are protocol phase
	// latency quantiles in seconds (the cluster_phase_seconds
	// histograms).
	ReplyP50, ReplyP95     float64
	CollectP50, CollectP95 float64
	FrozenP95              float64
}

// WireCostResult measures what the balancing protocol costs in real
// bytes: the same cluster runtime and workload over the in-memory
// loopback transport (bytes = codec payloads) and over real loopback
// TCP sockets (bytes = frames as written to the kernel). The inproc/TCP
// gap in bytes-per-message is pure framing overhead; the gap in
// messages-per-op is the protocol reacting to real scheduling and
// socket latency (more freeze collisions → more aborts and retries).
//
// Each run also publishes into a registry, which attributes the aborts
// to their cause. The per-reason abort counters say *what* kills the
// protocols, the phase histograms say *where the time goes*, and
// partners per op says what the collisions cost the operations that
// survive them: if collect (initiate → all replies) is orders of
// magnitude wider on TCP while aborts stay peer_frozen rather than
// timeout, the freeze window has become socket-latency wide and
// free-running initiators find every partner they ask already engaged —
// a collision problem, not a reliability problem.
type WireCostResult struct {
	Rows  []WireCostRow
	N     int
	Steps int
}

// WireCost runs the sweep: δ ∈ {1, 2, 4} over both transports, with the
// netcost experiment's producer/consumer split (a hot quarter).
func WireCost(scale Scale, seed uint64) (*WireCostResult, error) {
	const n = 16
	steps := 800
	if scale == ScaleFull {
		steps = 4000
	}
	out := &WireCostResult{N: n, Steps: steps}
	gen, con := hotQuarter(n)
	type cfg struct {
		name      string
		transport string
		delta     int
	}
	var configs []cfg
	for _, tr := range []string{"inproc", "tcp"} {
		for _, d := range []int{1, 2, 4} {
			configs = append(configs, cfg{fmt.Sprintf("%s δ=%d", tr, d), tr, d})
		}
	}
	for i, c := range configs {
		transports, err := wire.LocalTransports(n, c.transport == "inproc")
		if err != nil {
			return nil, fmt.Errorf("wirecost %s: %w", c.name, err)
		}
		reg := obs.NewRegistry()
		res, err := cluster.RunCluster(cluster.ClusterConfig{
			N: n, Delta: c.delta, F: 1.2, Steps: steps,
			GenP: gen, ConP: con, Seed: seed + uint64(i), Obs: reg,
		}, transports)
		if err != nil {
			return nil, fmt.Errorf("wirecost %s: %w", c.name, err)
		}
		if !res.Conserved() {
			return nil, fmt.Errorf("wirecost %s: packet conservation violated", c.name)
		}
		ops, msgs, bytes := res.Completed(), res.Messages(), res.Bytes()
		row := WireCostRow{
			Name: c.name, Spread: res.Spread(), Initiated: res.Initiated(), Ops: ops,
			MsgsPerOp:     ratio(msgs, ops),
			BytesPerOp:    ratio(bytes, ops),
			BytesPerMsg:   ratio(bytes, msgs),
			AbortedFrac:   abortFrac(res.Initiated(), ops),
			PartnersPerOp: ratio(res.Partners(), ops),
			Aborts:        make(map[string]int64, len(cluster.AbortReasons)),
		}
		var best int64
		for _, reason := range cluster.AbortReasons {
			v := reg.Counter(cluster.AbortMetric(reason)).Value()
			row.Aborts[reason] = v
			if v > best {
				best, row.Dominant = v, reason
			}
		}
		phase := func(p string) *obs.Histogram {
			return reg.Histogram(cluster.PhaseMetric(p), obs.LatencyBuckets)
		}
		reply, collect := phase(cluster.PhaseReply), phase(cluster.PhaseCollect)
		row.ReplyP50, row.ReplyP95 = reply.Quantile(0.5), reply.Quantile(0.95)
		row.CollectP50, row.CollectP95 = collect.Quantile(0.5), collect.Quantile(0.95)
		row.FrozenP95 = phase(cluster.PhaseFrozen).Quantile(0.95)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render writes the wire-cost table, the abort anatomy of the same runs,
// and each row's dominant abort cause.
func (r *WireCostResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Wire-level cluster cost (%d nodes, %d steps): inproc payloads vs TCP frames", r.N, r.Steps)); err != nil {
		return err
	}
	tb := trace.NewTable("bytes on the wire per balancing operation",
		"configuration", "final spread", "ops", "msgs per op", "bytes per op", "bytes per msg", "abort fraction")
	for _, row := range r.Rows {
		tb.AddRow(row.Name, row.Spread, row.Ops, row.MsgsPerOp, row.BytesPerOp, row.BytesPerMsg, row.AbortedFrac)
	}
	if err := tb.WriteText(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "inproc counts codec payload bytes; tcp counts full frames (payload + length prefix)\nas written to the socket, so the bytes-per-msg gap is the framing overhead.\n"); err != nil {
		return err
	}
	at := trace.NewTable("protocol outcomes by abort reason", append([]string{
		"configuration", "initiated", "completed", "partners per op"}, cluster.AbortReasons[:]...)...)
	for _, row := range r.Rows {
		cells := []any{row.Name, row.Initiated, row.Ops, row.PartnersPerOp}
		for _, reason := range cluster.AbortReasons {
			cells = append(cells, row.Aborts[reason])
		}
		at.AddRow(cells...)
	}
	if err := at.WriteText(w); err != nil {
		return err
	}
	pt := trace.NewTable("protocol phase latency quantiles (µs)",
		"configuration", "reply p50", "reply p95", "collect p50", "collect p95", "frozen p95")
	for _, row := range r.Rows {
		pt.AddRow(row.Name,
			row.ReplyP50*1e6, row.ReplyP95*1e6,
			row.CollectP50*1e6, row.CollectP95*1e6,
			row.FrozenP95*1e6)
	}
	if err := pt.WriteText(w); err != nil {
		return err
	}
	for _, row := range r.Rows {
		var total int64
		for _, v := range row.Aborts {
			total += v
		}
		cause := "none"
		if total > 0 {
			cause = fmt.Sprintf("%s (%.0f%% of %d aborts)",
				row.Dominant, 100*float64(row.Aborts[row.Dominant])/float64(total), total)
		}
		if _, err := fmt.Fprintf(w, "dominant abort cause, %s: %s\n", row.Name, cause); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "a peer_frozen abort is a collect in which every partner asked was engaged: one\nbusy partner only costs an operation that partner (partners per op < δ), it\ntakes all of them to abort it. With a socket-latency-wide collect phase the\nnodes are engaged most of the time, so what is left is collision, not transport\nreliability — and most of its traffic is request/busy pairs (see ROADMAP).\n")
	return err
}
