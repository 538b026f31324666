package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"lmbalance/internal/obs"
	"lmbalance/internal/topology"
)

// mustRun runs the simulation; it is single-threaded and its timeouts
// are virtual, so a protocol deadlock cannot hang it — an unreleased
// freeze would surface as a counter, not a stuck test.
func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidation(t *testing.T) {
	cases := []Config{
		{N: 1, Delta: 1, F: 1.5, Steps: 10},
		{N: 4, Delta: 0, F: 1.5, Steps: 10},
		{N: 4, Delta: 4, F: 1.5, Steps: 10},
		{N: 4, Delta: 1, F: 1.0, Steps: 10},
		{N: 4, Delta: 1, F: 2.0, Steps: 10}, // F < Delta+1: no operation could complete
		{N: 4, Delta: 2, F: 3.5, Steps: 10},
		{N: 4, Delta: 1, F: 1.5, Steps: 0},
		{N: 4, Delta: 1, F: 1.5, Steps: 10, GenP: []float64{0.5, 0.5}},
		{N: 4, Delta: 1, F: 1.5, Steps: 10, GenP: []float64{1.5}},
	}
	for i, c := range cases {
		if _, err := Run(c); err == nil {
			t.Fatalf("case %d accepted: %+v", i, c)
		}
	}
}

func TestConservation(t *testing.T) {
	res := mustRun(t, Config{
		N: 8, Delta: 1, F: 1.2, Steps: 2000,
		GenP: []float64{0.5}, ConP: []float64{0.4}, Seed: 1,
	})
	var gen, con int64
	for _, n := range res.Nodes {
		gen += n.Generated
		con += n.Consumed
	}
	if int64(res.TotalLoad()) != gen-con {
		t.Fatalf("conservation violated: %d final vs %d generated − %d consumed",
			res.TotalLoad(), gen, con)
	}
}

func TestProtocolCountersConsistent(t *testing.T) {
	res := mustRun(t, Config{
		N: 16, Delta: 2, F: 1.1, Steps: 1000,
		GenP: []float64{0.6}, ConP: []float64{0.3}, Seed: 2,
	})
	var initiated, completed, aborted int64
	for _, n := range res.Nodes {
		initiated += n.Initiated
		completed += n.Completed
		aborted += n.Aborted
	}
	if initiated == 0 {
		t.Fatal("no balancing protocols ran")
	}
	if completed+aborted != initiated {
		t.Fatalf("initiated %d != completed %d + aborted %d", initiated, completed, aborted)
	}
	if completed == 0 {
		t.Fatal("every protocol aborted — freeze conflicts are not resolving")
	}
	if res.Messages() == 0 {
		t.Fatal("no messages counted")
	}
}

// TestHotspotSpreads: a single producing node; balancing must spread the
// load across the network despite pure message passing.
func TestHotspotSpreads(t *testing.T) {
	gen := make([]float64, 16)
	gen[0] = 0.9
	res := mustRun(t, Config{
		N: 16, Delta: 1, F: 1.2, Steps: 3000,
		GenP: gen, ConP: []float64{0}, Seed: 3,
	})
	total := res.TotalLoad()
	if total < 2000 {
		t.Fatalf("implausibly low total %d", total)
	}
	// Node 0 must not hold more than a few multiples of the fair share.
	fair := total / 16
	if int64(res.Nodes[0].FinalLoad) > fair*3 {
		t.Fatalf("hotspot kept %d of %d (fair share %d)", res.Nodes[0].FinalLoad, total, fair)
	}
	// Everybody got something.
	for i, n := range res.Nodes {
		if n.FinalLoad == 0 {
			t.Fatalf("node %d ended with zero load; loads=%v", i, res.Nodes)
		}
	}
}

// TestSpreadBeatsUnbalanced: with balancing, the final spread under a
// heterogeneous workload is far below the no-balancing expectation.
func TestSpreadBeatsUnbalanced(t *testing.T) {
	gen := make([]float64, 8)
	con := make([]float64, 8)
	for i := range gen {
		if i < 4 {
			gen[i], con[i] = 0.8, 0.1
		} else {
			gen[i], con[i] = 0.1, 0.3
		}
	}
	res := mustRun(t, Config{
		N: 8, Delta: 2, F: 1.1, Steps: 4000,
		GenP: gen, ConP: con, Seed: 4,
	})
	// Without balancing, producers would hold ≈ 0.7·4000 = 2800 and
	// consumers ≈ 0; spread ≈ 2800. With balancing it must collapse.
	if s := res.Spread(); s > 500 {
		t.Fatalf("spread %d too large; loads: %+v", s, res.Nodes)
	}
}

// TestManyNodesNoDeadlock stresses freeze-conflict resolution: many nodes,
// large δ, frequent triggers.
func TestManyNodesNoDeadlock(t *testing.T) {
	res := mustRun(t, Config{
		N: 64, Delta: 4, F: 1.05, Steps: 500,
		GenP: []float64{0.7}, ConP: []float64{0.5}, Seed: 5,
	})
	var aborted, initiated int64
	for _, n := range res.Nodes {
		aborted += n.Aborted
		initiated += n.Initiated
	}
	t.Logf("64 nodes: %d initiated, %d aborted (%.1f%%), %d messages",
		initiated, aborted, 100*float64(aborted)/float64(initiated+1), res.Messages())
}

// TestDelta1MinimalConfig: the smallest network.
func TestDelta1MinimalConfig(t *testing.T) {
	res := mustRun(t, Config{
		N: 2, Delta: 1, F: 1.5, Steps: 500,
		GenP: []float64{0.5, 0}, ConP: []float64{0}, Seed: 6,
	})
	if d := res.Nodes[0].FinalLoad - res.Nodes[1].FinalLoad; d < -300 || d > 300 {
		t.Fatalf("two-node balance failed: loads %d vs %d",
			res.Nodes[0].FinalLoad, res.Nodes[1].FinalLoad)
	}
}

// TestMessageCostScalesWithDelta: each completed protocol exchanges
// 2δ+transfer messages; larger δ costs proportionally more.
func TestMessageCostScalesWithDelta(t *testing.T) {
	run := func(delta int) (perOp float64) {
		res := mustRun(t, Config{
			N: 32, Delta: delta, F: 1.2, Steps: 1500,
			GenP: []float64{0.6}, ConP: []float64{0.4}, Seed: 7,
		})
		var completed int64
		for _, n := range res.Nodes {
			completed += n.Completed
		}
		if completed == 0 {
			t.Fatal("no completed protocols")
		}
		return float64(res.Messages()) / float64(completed)
	}
	m1, m4 := run(1), run(4)
	if m4 <= m1 {
		t.Fatalf("messages per op should grow with δ: δ=1→%.1f δ=4→%.1f", m1, m4)
	}
}

func TestGraphValidationNetsim(t *testing.T) {
	g := topology.Ring(8)
	if _, err := Run(Config{N: 16, Delta: 1, F: 1.2, Steps: 10, GenP: []float64{0.5}, ConP: []float64{0.1}, Graph: g}); err == nil {
		t.Fatal("graph size mismatch accepted")
	}
}

// TestGraphRestrictedBalancing: with a torus topology, balancing still
// spreads a hotspot's load across the whole network. Light consumption
// everywhere matters: a transfer resets the receiver's trigger base, so
// forwarding beyond one hop is driven by the *decrease* trigger of
// consuming receivers — without consumers, locality-restricted balancing
// legitimately stalls at the hotspot's neighborhood (the global model
// does not have this issue because everyone eventually balances with the
// hotspot directly).
func TestGraphRestrictedBalancing(t *testing.T) {
	g := topology.Torus2D(4, 4)
	gen := make([]float64, 16)
	gen[0] = 0.9
	con := make([]float64, 16)
	for i := range con {
		con[i] = 0.05
	}
	res := mustRun(t, Config{
		N: 16, Delta: 2, F: 1.2, Steps: 5000,
		GenP: gen, ConP: con, Seed: 9, Graph: g,
	})
	var gensum, consum int64
	for _, n := range res.Nodes {
		gensum += n.Generated
		consum += n.Consumed
	}
	if int64(res.TotalLoad()) != gensum-consum {
		t.Fatalf("conservation violated: %d vs %d−%d", res.TotalLoad(), gensum, consum)
	}
	// Work must have reached every node: everyone consumed something.
	for i, n := range res.Nodes {
		if i != 0 && n.Consumed == 0 {
			t.Fatalf("node %d never consumed anything; loads %+v", i, res.Nodes)
		}
	}
	// The hotspot must not hoard.
	if int64(res.Nodes[0].FinalLoad) > res.TotalLoad()*3/4 {
		t.Fatalf("hotspot kept %d of %d under torus balancing", res.Nodes[0].FinalLoad, res.TotalLoad())
	}
}

// armedConfig is a run with every fault mechanism armed.
func armedConfig() Config {
	return Config{
		N: 16, Delta: 2, F: 1.1, Steps: 800,
		GenP: []float64{0.6}, ConP: []float64{0.3}, Seed: 31,
		Graph: topology.Torus2D(4, 4),
		Faults: Faults{DropP: 0.3, DelayMax: 3, Seed: 19, TimeoutTicks: 25,
			Crashes: []Crash{{Node: 3, AtStep: 300}, {Node: 7, AtStep: 500, DownTicks: 100}}},
	}
}

// TestNetsimDeterministic: a Result is a pure function of its Config —
// the same seeds, with every fault mechanism armed, give the same
// per-node statistics (fault counters included), run after run.
func TestNetsimDeterministic(t *testing.T) {
	a, b := mustRun(t, armedConfig()), mustRun(t, armedConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same Config, different Results:\n%+v\n%+v", a.Nodes, b.Nodes)
	}
	var timeouts, dropped, delayed, completed int64
	for i, n := range a.Nodes {
		timeouts += n.Timeouts
		dropped += a.Faults[i].Dropped
		delayed += a.Faults[i].Delayed
		completed += n.Completed
	}
	if timeouts == 0 || dropped == 0 || delayed == 0 || completed == 0 || !a.Conserved() {
		t.Fatalf("the compared run did not exercise the fault layer: %+v", a.Nodes)
	}
	// The workload seed and the fault seed are independent knobs.
	c := mustRun(t, Config{N: 16, Delta: 2, F: 1.1, Steps: 800, Seed: 31,
		GenP: []float64{0.6}, ConP: []float64{0.3}, Faults: Faults{DropP: 0.3, Seed: 20}})
	d := mustRun(t, Config{N: 16, Delta: 2, F: 1.1, Steps: 800, Seed: 31,
		GenP: []float64{0.6}, ConP: []float64{0.3}, Faults: Faults{DropP: 0.3, Seed: 21}})
	if reflect.DeepEqual(c, d) {
		t.Fatal("changing Faults.Seed changed nothing")
	}
}

// TestNetsimGoldenSamplePath pins the per-node results of the armed run:
// a change to the scheduler, the fault layer or the node that moves any
// node's counters fails here, and must change the digest on purpose.
func TestNetsimGoldenSamplePath(t *testing.T) {
	res := mustRun(t, armedConfig())
	h := sha256.New()
	for i, n := range res.Nodes {
		f := res.Faults[i]
		fmt.Fprintln(h, n.FinalLoad, n.Generated, n.Consumed, n.Initiated, n.Completed,
			n.Partners, n.Aborted, n.MsgsSent, f.Dropped, f.LostAtCrash, f.Delayed,
			n.Timeouts, n.FreezeExpired, f.Crashes)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != "5324feda94294391" {
		t.Errorf("digest %s, want 5324feda94294391", got)
	}
}

// BenchmarkNetsimWorld times one fixed world, bench/micro.go's netsim row
// (n = 32, δ = 1, 2 000 steps, seed 7), in ns per node-step: bare, with a
// registry that the nodes and publishObs write into, and with a flight
// recorder per node in memory (closed, so sealed, inside the timing).
func BenchmarkNetsimWorld(b *testing.B) {
	cfg := Config{N: 32, Delta: 1, F: 1.2, Steps: 2000,
		GenP: []float64{0.6}, ConP: []float64{0.4}, Seed: 7}
	for _, arm := range []string{"bare", "registry", "recorded"} {
		b.Run(arm, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := cfg
				var err error
				switch arm {
				case "registry":
					c.Obs = obs.NewRegistry()
				case "recorded":
					if c.Flight, err = Record("", c.N); err != nil {
						b.Fatal(err)
					}
				}
				res, err := Run(c)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Conserved() {
					b.Fatal("packet conservation violated")
				}
				for _, rec := range c.Flight {
					if err := rec.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.N*cfg.Steps), "ns/node-step")
		})
	}
}
