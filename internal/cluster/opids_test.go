package cluster_test

import (
	"testing"

	"lmbalance/internal/flight"
	"lmbalance/internal/netsim"
)

// TestOpIDsSeedStable runs the same seeded nodes under two delay
// schedules and requires each node to mint its op ids from the same
// deterministic sequence: the i-th id a node mints is a pure function of
// (seed, node). How *many* it mints varies with protocol timing, which
// the delays change, so the check is on the common prefix — that is what
// makes recordings comparable across reruns.
func TestOpIDsSeedStable(t *testing.T) {
	run := func(delaySeed uint64) map[int][]uint64 {
		recs, err := netsim.Record("", 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := netsim.Run(netsim.Config{N: 5, Delta: 2, F: 1.2, Steps: 400, Seed: 9,
			Faults: netsim.Faults{DelayMax: 3, Seed: delaySeed}, Flight: recs})
		if err != nil {
			t.Fatal(err)
		}
		recording, _, err := netsim.Replay(res, recs)
		if err != nil {
			t.Fatal(err)
		}
		ops := make(map[int][]uint64)
		for _, nr := range recording.Nodes {
			for _, ev := range nr.Events {
				if ev.Dir == flight.DirLocal && ev.Kind == flight.LocalInitiate {
					ops[nr.Node] = append(ops[nr.Node], ev.Op)
				}
			}
		}
		return ops
	}
	a := run(1)
	b := run(2)
	if len(a) == 0 {
		t.Fatal("no initiations recorded")
	}
	checked, differ := 0, false
	for node, opsA := range a {
		opsB := b[node]
		differ = differ || len(opsA) != len(opsB)
		m := len(opsA)
		if len(opsB) < m {
			m = len(opsB)
		}
		for i := 0; i < m; i++ {
			if opsA[i] == 0 {
				t.Fatalf("node %d minted the reserved zero op id", node)
			}
			if opsA[i] != opsB[i] {
				t.Fatalf("node %d op %d differs across reruns: %#x vs %#x", node, i, opsA[i], opsB[i])
			}
			checked++
		}
	}
	if checked == 0 || !differ {
		t.Fatalf("reruns compared %d op ids and minted the same number everywhere: the delays changed no timing", checked)
	}
}
