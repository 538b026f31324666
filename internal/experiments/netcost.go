package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/netsim"
	"lmbalance/internal/topology"
	"lmbalance/internal/trace"
)

// NetCostRow is one configuration's communication measurement.
type NetCostRow struct {
	Name        string
	Spread      int
	MsgsPerOp   float64
	AbortedFrac float64
	// PartnersPerOp is the mean number of partners a completed operation
	// balanced with — the δ the run actually got: a busy partner drops out
	// of an operation instead of aborting it, so it can sit below the
	// configured δ, and the paper's bounds (δ/(δ+1−f) …) are to be read
	// against this figure.
	PartnersPerOp float64
}

// NetCostResult measures the real communication cost of the
// message-passing realization: messages per completed balancing
// operation, the abort rate of the freeze protocol and the partners an
// operation actually balanced with, across δ and partner topologies.
// The paper argues balancing cost is dominated by organization, not data
// volume — this harness counts the organization.
type NetCostResult struct {
	Rows  []NetCostRow
	N     int
	Steps int
}

// NetCost runs the sweep. Scale controls nothing here (single runs; the
// protocol counters are high-volume already), but is accepted for
// interface uniformity.
func NetCost(scale Scale, seed uint64) (*NetCostResult, error) {
	const n = 64
	const steps = 3000
	out := &NetCostResult{N: n, Steps: steps}
	gen, con := hotQuarter(n)
	type cfg struct {
		name  string
		delta int
		graph *topology.Graph
	}
	configs := []cfg{
		{"global δ=1", 1, nil},
		{"global δ=2", 2, nil},
		{"global δ=4", 4, nil},
		{"torus8x8 δ=2", 2, topology.Torus2D(8, 8)},
		{"hypercube6 δ=2", 2, topology.Hypercube(6)},
		{"debruijn6 δ=2", 2, topology.DeBruijn(6)},
	}
	for i, c := range configs {
		res, err := netsim.Run(netsim.Config{
			N: n, Delta: c.delta, F: 1.2, Steps: steps,
			GenP: gen, ConP: con, Seed: seed + uint64(i), Graph: c.graph,
		})
		if err != nil {
			return nil, fmt.Errorf("netcost %s: %w", c.name, err)
		}
		completed := res.Completed()
		out.Rows = append(out.Rows, NetCostRow{
			Name: c.name, Spread: res.Spread(),
			MsgsPerOp:     ratio(res.Messages(), completed),
			AbortedFrac:   abortFrac(res.Initiated(), completed),
			PartnersPerOp: ratio(res.Partners(), completed),
		})
	}
	return out, nil
}

// Render writes the communication-cost table.
func (r *NetCostResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Message-passing communication cost (%d nodes, %d steps)", r.N, r.Steps)); err != nil {
		return err
	}
	tb := trace.NewTable("freeze/ack/transfer protocol costs",
		"configuration", "final spread", "msgs per completed op", "abort fraction", "partners per op")
	for _, row := range r.Rows {
		tb.AddRow(row.Name, row.Spread, row.MsgsPerOp, row.AbortedFrac, row.PartnersPerOp)
	}
	return tb.WriteText(w)
}
