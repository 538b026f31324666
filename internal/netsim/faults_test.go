package netsim

import "testing"

func TestFaultValidation(t *testing.T) {
	base := Config{N: 8, Delta: 1, F: 1.2, Steps: 100}
	cases := []Faults{
		{DropP: -0.1},
		{DropP: 1.5},
		{DelayMax: -1},
		{DelayMax: maxDelayTicks + 1},
		{TimeoutTicks: -1},
		{FreezeTicks: -2},
		{Crashes: []Crash{{Node: 8}}},
		{Crashes: []Crash{{Node: -1}}},
		{Crashes: []Crash{{Node: 0, AtStep: -5}}},
		{Crashes: []Crash{{Node: 0, DownTicks: -5}}},
	}
	for i, f := range cases {
		cfg := base
		cfg.Faults = f
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d accepted: %+v", i, f)
		}
	}
}

func TestFaultsDisabledLeavesCountersZero(t *testing.T) {
	res := mustRun(t, Config{
		N: 8, Delta: 1, F: 1.2, Steps: 1000,
		GenP: []float64{0.5}, ConP: []float64{0.4}, Seed: 11,
	})
	for i, n := range res.Nodes {
		if f := res.Faults[i]; f != (FaultStats{}) || n.Timeouts != 0 || n.FreezeExpired != 0 {
			t.Fatalf("node %d has fault counters without faults: %+v %+v", i, n, f)
		}
	}
}

// TestConservationUnderDrops: even with half the control messages lost,
// every generated-minus-consumed packet is accounted for, and dropped
// acks cannot wedge the protocol — the run terminates via timeouts.
func TestConservationUnderDrops(t *testing.T) {
	res := mustRun(t, Config{
		N: 16, Delta: 2, F: 1.1, Steps: 800,
		GenP: []float64{0.6}, ConP: []float64{0.3}, Seed: 21,
		Faults: Faults{DropP: 0.5, Seed: 7, TimeoutTicks: 25},
	})
	if !res.Conserved() {
		t.Fatalf("conservation violated under drops: %+v", res.Nodes)
	}
	var dropped, timeouts, initiated int64
	for i, n := range res.Nodes {
		dropped += res.Faults[i].Dropped
		timeouts += n.Timeouts
		initiated += n.Initiated
	}
	if initiated == 0 {
		t.Fatal("no protocols ran")
	}
	if dropped == 0 {
		t.Fatal("DropP=0.5 dropped nothing")
	}
	if timeouts == 0 {
		t.Fatal("dropped replies never triggered an initiator timeout")
	}
}

// TestConservationUnderDelays: pure delay (no loss) must not break
// conservation or liveness; the run does not end while a delayed
// transfer is still in the mailbox.
func TestConservationUnderDelays(t *testing.T) {
	res := mustRun(t, Config{
		N: 16, Delta: 2, F: 1.1, Steps: 1500,
		GenP: []float64{0.6}, ConP: []float64{0.3}, Seed: 22,
		Faults: Faults{DelayMax: 6, Seed: 9},
	})
	if !res.Conserved() {
		t.Fatalf("conservation violated under delays: %+v", res.Nodes)
	}
	var delayed, completed int64
	for i, n := range res.Nodes {
		delayed += res.Faults[i].Delayed
		completed += n.Completed
	}
	if delayed == 0 {
		t.Fatal("DelayMax=6 delayed nothing")
	}
	if completed == 0 {
		t.Fatal("no protocol completed under delay — the layer is too disruptive")
	}
}

// TestConservationUnderCrashes: fail-stop windows (load in stable
// storage) conserve packets exactly, and the crashed nodes come back and
// finish their steps.
func TestConservationUnderCrashes(t *testing.T) {
	res := mustRun(t, Config{
		N: 16, Delta: 2, F: 1.1, Steps: 1500,
		GenP: []float64{0.6}, ConP: []float64{0.3}, Seed: 23,
		Faults: Faults{
			Seed: 13, DropP: 0.05, TimeoutTicks: 25,
			Crashes: []Crash{
				{Node: 1, AtStep: 200}, {Node: 5, AtStep: 400},
				{Node: 9, AtStep: 600}, {Node: 13, AtStep: 800, DownTicks: 200},
			},
		},
	})
	if !res.Conserved() {
		t.Fatalf("conservation violated under crashes: %+v", res.Nodes)
	}
	for _, id := range []int{1, 5, 9, 13} {
		if res.Faults[id].Crashes != 1 {
			t.Fatalf("node %d recorded %d crashes, want 1", id, res.Faults[id].Crashes)
		}
		if got := res.Nodes[id].Generated; got == 0 {
			t.Fatalf("node %d generated nothing — did it resume stepping after recovery?", id)
		}
	}
	var crashes int64
	for _, f := range res.Faults {
		crashes += f.Crashes
	}
	if crashes != 4 {
		t.Fatalf("%d crashes across the nodes, want 4", crashes)
	}
}

// TestFrozenPeersReleasedByTimeout: with releases being dropped and
// initiators crashing, partners must rescue themselves via the
// freeze-expiry timeout instead of leaking frozen.
func TestFrozenPeersReleasedByTimeout(t *testing.T) {
	crashes := make([]Crash, 0, 8)
	for i := 0; i < 8; i++ {
		crashes = append(crashes, Crash{Node: i * 2, AtStep: 100 + 50*i, DownTicks: 300})
	}
	res := mustRun(t, Config{
		N: 16, Delta: 3, F: 1.05, Steps: 800,
		GenP: []float64{0.7}, ConP: []float64{0.3}, Seed: 24,
		Faults: Faults{DropP: 0.6, Seed: 17, Crashes: crashes, FreezeTicks: 60,
			TimeoutTicks: 25},
	})
	if !res.Conserved() {
		t.Fatalf("conservation violated: %+v", res.Nodes)
	}
	var expired int64
	for _, n := range res.Nodes {
		expired += n.FreezeExpired
	}
	if expired == 0 {
		t.Fatal("no freeze ever expired despite 60% control loss — self-release path untested")
	}
}

// TestCountersConsistentUnderFaults: every initiated protocol ends as
// completed or aborted (collects the timeout ended included, whichever
// way they went), except the ones wiped by a crash mid-flight.
func TestCountersConsistentUnderFaults(t *testing.T) {
	res := mustRun(t, Config{
		N: 16, Delta: 2, F: 1.1, Steps: 800,
		GenP: []float64{0.6}, ConP: []float64{0.3}, Seed: 25,
		Faults: Faults{DropP: 0.3, DelayMax: 3, Seed: 19,
			TimeoutTicks: 25,
			Crashes:      []Crash{{Node: 3, AtStep: 300}, {Node: 7, AtStep: 500}}},
	})
	var initiated, completed, aborted, timeouts, crashed int64
	for i, n := range res.Nodes {
		initiated += n.Initiated
		completed += n.Completed
		aborted += n.Aborted
		timeouts += n.Timeouts
		crashed += res.Faults[i].Crashes
	}
	if completed+aborted > initiated {
		t.Fatalf("completed %d + aborted %d exceeds initiated %d", completed, aborted, initiated)
	}
	// A crash can abandon at most one in-flight protocol without counting
	// an abort.
	if initiated-(completed+aborted) > crashed {
		t.Fatalf("%d protocols unaccounted for, only %d crashes", initiated-(completed+aborted), crashed)
	}
	if timeouts > completed+aborted {
		t.Fatalf("timeouts %d exceed the %d concluded collects — each must count as completed or aborted", timeouts, completed+aborted)
	}
	if completed == 0 {
		t.Fatal("nothing completed under moderate faults")
	}
}
