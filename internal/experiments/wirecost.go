package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/cluster"
	"lmbalance/internal/trace"
	"lmbalance/internal/wire"
)

// WireCostRow is one (transport, δ) configuration's measurement.
type WireCostRow struct {
	Name        string
	Spread      int
	Ops         int64   // completed balancing operations
	MsgsPerOp   float64 // wire messages per completed operation
	BytesPerOp  float64 // wire bytes per completed operation
	BytesPerMsg float64 // mean message size on the wire
	AbortedFrac float64
}

// WireCostResult measures what the balancing protocol costs in real
// bytes: the same cluster runtime and workload over the in-memory
// loopback transport (bytes = codec payloads) and over real loopback
// TCP sockets (bytes = frames as written to the kernel). The inproc/TCP
// gap in bytes-per-message is pure framing overhead; the gap in
// messages-per-op is the protocol reacting to real scheduling and
// socket latency (more freeze collisions → more aborts and retries).
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
		res, err := cluster.RunCluster(cluster.ClusterConfig{
			N: n, Delta: c.delta, F: 1.2, Steps: steps,
			GenP: gen, ConP: con, Seed: seed + uint64(i),
		}, transports)
		if err != nil {
			return nil, fmt.Errorf("wirecost %s: %w", c.name, err)
		}
		if !res.Conserved() {
			return nil, fmt.Errorf("wirecost %s: packet conservation violated", c.name)
		}
		ops, msgs, bytes := res.Completed(), res.Messages(), res.Bytes()
		out.Rows = append(out.Rows, WireCostRow{
			Name: c.name, Spread: res.Spread(), Ops: ops,
			MsgsPerOp:   ratio(msgs, ops),
			BytesPerOp:  ratio(bytes, ops),
			BytesPerMsg: ratio(bytes, msgs),
			AbortedFrac: abortFrac(res.Initiated(), ops),
		})
	}
	return out, nil
}

// Render writes the wire-cost table.
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
	_, err := fmt.Fprintf(w, "inproc counts codec payload bytes; tcp counts full frames (payload + length prefix)\nas written to the socket, so the bytes-per-msg gap is the framing overhead.\n")
	return err
}
