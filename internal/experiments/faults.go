package experiments

import (
	"fmt"
	"io"

	"lmbalance/internal/netsim"
	"lmbalance/internal/trace"
)

// FaultRow is one fault configuration's measurement.
type FaultRow struct {
	DropP       float64
	CrashCount  int
	Spread      int
	MsgsPerOp   float64
	AbortedFrac float64
	Timeouts    int64
	SelfRelease int64
	Dropped     int64
	Conserved   bool
}

// FaultResult measures how gracefully the freeze/ack/transfer protocol
// degrades under an unreliable network: a sweep over control-message drop
// rates crossed with fail-stop crash counts. The paper assumes a reliable
// synchronous network; this extension quantifies the price of dropping
// that assumption — balancing quality (spread) and organizational cost
// (messages per completed operation, abort fraction) as faults increase,
// with packet conservation checked exactly on every cell.
type FaultResult struct {
	Rows  []FaultRow
	N     int
	Steps int
}

// FaultSweep runs the grid. Scale selects the per-cell step count (the
// cells are single runs; the protocol counters are high-volume already).
func FaultSweep(scale Scale, seed uint64) (*FaultResult, error) {
	const n = 64
	steps := 1000
	if scale == ScaleFull {
		steps = 3000
	}
	out := &FaultResult{N: n, Steps: steps}
	gen, con := hotQuarter(n)
	drops := []float64{0, 0.05, 0.2, 0.5}
	crashCounts := []int{0, 4, 16}
	cell := 0
	for _, crashes := range crashCounts {
		for _, dropP := range drops {
			cell++
			schedule := make([]netsim.Crash, crashes)
			for i := range schedule {
				// Stagger crashes over nodes and over the middle half of
				// the run so recovery windows overlap ongoing balancing.
				schedule[i] = netsim.Crash{
					Node:   (i*7 + 3) % n,
					AtStep: steps/4 + i*(steps/2)/max(crashes, 1),
				}
			}
			res, err := netsim.Run(netsim.Config{
				N: n, Delta: 2, F: 1.2, Steps: steps,
				GenP: gen, ConP: con, Seed: seed + uint64(cell),
				Faults: netsim.Faults{
					DropP:        dropP,
					Crashes:      schedule,
					Seed:         (seed ^ (0xfa17 << 16)) + uint64(cell),
					TimeoutTicks: 25,
				},
			})
			if err != nil {
				return nil, fmt.Errorf("faults drop=%.2f crashes=%d: %w", dropP, crashes, err)
			}
			completed := res.Completed()
			out.Rows = append(out.Rows, FaultRow{
				DropP: dropP, CrashCount: crashes, Spread: res.Spread(),
				MsgsPerOp: ratio(res.Messages(), completed), AbortedFrac: abortFrac(res.Initiated(), completed),
				Timeouts: res.Timeouts(), SelfRelease: res.FreezeExpired(), Dropped: res.Lost(),
				Conserved: res.Conserved(),
			})
		}
	}
	return out, nil
}

// Render writes the fault-sensitivity table.
func (r *FaultResult) Render(w io.Writer) error {
	if err := header(w, fmt.Sprintf("Fault sensitivity of the trigger protocol (%d nodes, %d steps)", r.N, r.Steps)); err != nil {
		return err
	}
	tb := trace.NewTable("control-message loss × fail-stop crashes",
		"drop", "crashes", "final spread", "msgs per op", "abort frac",
		"timeouts", "self-releases", "msgs lost", "conserved")
	for _, row := range r.Rows {
		conserved := "yes"
		if !row.Conserved {
			conserved = "NO"
		}
		tb.AddRow(row.DropP, row.CrashCount, row.Spread, row.MsgsPerOp,
			row.AbortedFrac, row.Timeouts, row.SelfRelease, row.Dropped, conserved)
	}
	return tb.WriteText(w)
}
