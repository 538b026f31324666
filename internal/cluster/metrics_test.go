package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lmbalance/internal/obs"
)

// TestClusterMetricsPopulated runs a loopback cluster with a shared
// registry and checks that the protocol's instrumentation — counters,
// phase histograms and the load distribution — agrees
// with the per-node Stats the run already reports.
func TestClusterMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := ClusterConfig{N: 8, Delta: 2, F: 1.2, Steps: 600, Seed: 42, Obs: reg}
	res := runLoop(t, cfg)
	if !res.Conserved() {
		t.Fatalf("conservation violated: total %d", res.TotalLoad())
	}

	if got := reg.Counter("cluster_protocols_initiated_total").Value(); got != res.Initiated() {
		t.Fatalf("initiated counter %d != stats %d", got, res.Initiated())
	}
	if got := reg.Counter("cluster_protocols_completed_total").Value(); got != res.Completed() {
		t.Fatalf("completed counter %d != stats %d", got, res.Completed())
	}
	if got := reg.Counter("cluster_op_partners_total").Value(); got != res.Partners() ||
		got < res.Completed() || got > int64(cfg.Delta)*res.Completed() {
		t.Fatalf("partners counter %d, stats %d, over %d completed operations of δ=%d", got, res.Partners(), res.Completed(), cfg.Delta)
	}
	var aborted int64
	for _, n := range res.Nodes {
		aborted += n.Aborted
	}
	var byReason int64
	for _, r := range []string{AbortPeerFrozen, AbortTimeout, AbortStaleEpoch, AbortLinkDown} {
		byReason += reg.Counter(AbortMetric(r)).Value()
	}
	if byReason != aborted {
		t.Fatalf("per-reason aborts %d != stats aborts %d", byReason, aborted)
	}
	// On loopback nothing times out: every abort is a collect that found
	// its partners busy.
	if got := reg.Counter(AbortMetric(AbortPeerFrozen)).Value(); got != aborted {
		t.Fatalf("loopback aborts should all be peer_frozen: %d of %d", got, aborted)
	}

	// Every initiated protocol resolves or abandons, so the collect
	// histogram counts exactly the resolved ones.
	collect := reg.Histogram(PhaseMetric(PhaseCollect), obs.LatencyBuckets)
	if collect.Count() == 0 {
		t.Fatal("collect phase histogram empty")
	}
	// Steps taken are counted per node, in Stats and on the registry.
	for _, n := range res.Nodes {
		if n.Steps != int64(cfg.Steps) {
			t.Fatalf("node %d took %d steps, want %d", n.ID, n.Steps, cfg.Steps)
		}
		if got := reg.Counter(fmt.Sprintf(`cluster_steps_total{node="%d"}`, n.ID)).Value(); got != n.Steps {
			t.Fatalf("node %d steps counter %d != stats %d", n.ID, got, n.Steps)
		}
	}

	// The exposition carries the per-reason series and phase histograms.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cluster_aborts_total{reason="peer_frozen"}`,
		`cluster_phase_seconds_count{phase="collect"}`,
		`cluster_node_load{node="0"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestClusterNilRegistry makes sure a run with instrumentation disabled
// (the default) still works — every handle is nil and no-ops.
func TestClusterNilRegistry(t *testing.T) {
	res := runLoop(t, ClusterConfig{N: 4, Delta: 1, F: 1.3, Steps: 200, Seed: 7})
	if !res.Conserved() {
		t.Fatalf("conservation violated: total %d", res.TotalLoad())
	}
}
