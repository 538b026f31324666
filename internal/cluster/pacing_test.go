package cluster

import (
	"testing"
	"time"
)

// TestMinInitGapPaces checks the initiation rate limit: with a gap far
// longer than the run, each node fires at most one balancing protocol
// of its own, and the deferred triggers are counted.
func TestMinInitGapPaces(t *testing.T) {
	base := ClusterConfig{N: 6, Delta: 2, F: 1.1, Steps: 500, Seed: 7,
		GenP: []float64{0.9, 0.9, 0.9, 0.1, 0.1, 0.1},
		ConP: []float64{0.1, 0.1, 0.1, 0.5, 0.5, 0.5}}

	free := runLoop(t, base)

	paced := base
	paced.MinInitGap = time.Hour
	res := runLoop(t, paced)

	var limited int64
	for i, nd := range res.Nodes {
		if nd.Initiated > 1 {
			t.Fatalf("node %d initiated %d times under an hour-long gap", i, nd.Initiated)
		}
		limited += nd.RateLimited
	}
	if limited == 0 {
		t.Fatal("no deferred initiations counted — pacing never engaged")
	}
	if res.Initiated() >= free.Initiated() {
		t.Fatalf("pacing did not reduce initiations: %d paced vs %d free",
			res.Initiated(), free.Initiated())
	}
	if !res.Conserved() || !res.Summary.Conserved() {
		t.Fatal("pacing broke conservation")
	}

	// Gap 0 must be byte-for-byte the old behavior: no deferrals.
	for _, nd := range free.Nodes {
		if nd.RateLimited != 0 {
			t.Fatalf("unpaced run counted %d deferrals", nd.RateLimited)
		}
	}
}

func TestMinInitGapValidation(t *testing.T) {
	cfg := Config{ID: 0, N: 2, Delta: 1, F: 1.2, Steps: 1, Transport: loopTransports(2)[0],
		MinInitGap: -time.Second}
	if _, err := New(cfg); err == nil {
		t.Fatal("negative MinInitGap accepted")
	}
}

// TestEpochVisible: the epoch mirror follows the protocol seq and is
// readable cross-goroutine (what /healthz reports).
func TestEpochVisible(t *testing.T) {
	ts := loopTransports(2)
	n0, err := New(Config{ID: 0, N: 2, Delta: 1, F: 1.2, Steps: 400,
		GenP: 0.9, ConP: 0.1, Seed: 3, Transport: ts[0]})
	if err != nil {
		t.Fatal(err)
	}
	n1, err := New(Config{ID: 1, N: 2, Delta: 1, F: 1.2, Steps: 400,
		GenP: 0.1, ConP: 0.5, Seed: 3, Transport: ts[1]})
	if err != nil {
		t.Fatal(err)
	}
	if n0.Epoch() != 0 {
		t.Fatalf("fresh node epoch = %d", n0.Epoch())
	}
	if n0.ID() != 0 || n1.ID() != 1 {
		t.Fatal("ID accessor wrong")
	}
	n0.Start()
	n1.Start()
	if _, err := n0.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Wait(); err != nil {
		t.Fatal(err)
	}
	if n0.Epoch() == 0 && n1.Epoch() == 0 {
		t.Fatal("no node ever advanced its epoch despite a skewed workload")
	}
}
