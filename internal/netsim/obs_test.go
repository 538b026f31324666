package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"lmbalance/internal/cluster"
	"lmbalance/internal/obs"
)

// TestRunPublishesObs checks that a run with a registry attached
// publishes totals that agree with the Result it returns: the netsim_*
// totals, and the nodes' own cluster_* counters, which the registry
// reaches through ClusterConfig.Obs. The second world arms every fault
// mechanism, so its aborts have more than one reason; the third delays
// frames past the reply timeout, so replies outlive their collect and
// some aborts are stale_epoch.
func TestRunPublishesObs(t *testing.T) {
	plain := Config{N: 8, Delta: 2, F: 1.5, Steps: 400, Seed: 11,
		GenP: []float64{0.5}, ConP: []float64{0.4}}
	late := armedConfig()
	late.Faults.DelayMax = 30
	for _, cfg := range []Config{plain, armedConfig(), late} {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var gen, aborted int64
		for i, n := range res.Nodes {
			gen += n.Generated
			aborted += n.Aborted
			if got := reg.Counter(fmt.Sprintf(`cluster_node_generated_total{node="%d"}`, i)).Value(); got != n.Generated {
				t.Fatalf("node %d: cluster_node_generated_total = %d, want %d", i, got, n.Generated)
			}
		}
		for name, want := range map[string]int64{
			"cluster_protocols_initiated_total": res.Initiated(),
			"cluster_protocols_completed_total": res.Completed(),
			"cluster_op_partners_total":         res.Partners(),
			"cluster_freeze_expired_total":      res.FreezeExpired(),
			"netsim_msgs_total":                 res.Messages(),
			"netsim_timeouts_total":             res.Timeouts(),
		} {
			if got := reg.Counter(name).Value(); got != want {
				t.Fatalf("%s = %d, want %d", name, got, want)
			}
		}
		var reasons int64
		for _, reason := range cluster.AbortReasons {
			reasons += reg.Counter(cluster.AbortMetric(reason)).Value()
		}
		if reasons != aborted {
			t.Fatalf("aborts by reason sum to %d, want %d", reasons, aborted)
		}
		// A netsim port never fails a send.
		if got := reg.Counter(cluster.AbortMetric(cluster.AbortLinkDown)).Value(); got != 0 {
			t.Fatalf("%d link_down aborts", got)
		}
		lh := reg.Histogram("netsim_final_load", obs.LoadBuckets)
		if got := lh.Count(); got != int64(cfg.N) {
			t.Fatalf("final load histogram has %d samples, want %d", got, cfg.N)
		}
		if int64(lh.Sum()) != int64(res.TotalLoad()) {
			t.Fatalf("final load histogram sum %v, want %d", lh.Sum(), res.TotalLoad())
		}
		stale := reg.Counter(cluster.AbortMetric(cluster.AbortStaleEpoch)).Value()
		if gen == 0 || cfg.Faults.DropP > 0 && (res.Timeouts() == 0 || reasons == 0) ||
			cfg.Faults.DelayMax > cfg.Faults.TimeoutTicks && stale == 0 {
			t.Fatalf("the world did not exercise what it checks: generated %d, timeouts %d, aborts %d, stale_epoch %d",
				gen, res.Timeouts(), reasons, stale)
		}
	}
}

// TestObserversChangeNoResult pins the observer effect on virtual time at
// zero: a grid world's Result is identical with a flight recorder per node
// and a registry attached and without them, over 60 drawWorld seeds. The
// registry reaches the nodes too, so their own counters and phase
// histograms are in the comparison.
func TestObserversChangeNoResult(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		w := drawWorld(seed)
		bare, err := Run(w.cfg)
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		cfg := w.cfg
		cfg.Obs = obs.NewRegistry()
		if cfg.Flight, err = Record("", cfg.N); err != nil {
			t.Fatal(err)
		}
		observed, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		if !reflect.DeepEqual(bare, observed) {
			t.Fatalf("%v: observers changed the result:\nbare     %+v\nobserved %+v", w, bare, observed)
		}
	}
}
