package cluster

import (
	"testing"
	"time"

	"lmbalance/internal/wire"
)

// loopTransports returns n wired loopback endpoints as []wire.Transport.
func loopTransports(n int) []wire.Transport {
	net := wire.NewLoopback(n)
	ts := make([]wire.Transport, n)
	for i := range ts {
		ts[i] = net.Transport(i)
	}
	return ts
}

func runLoop(t *testing.T, cfg ClusterConfig) *Result {
	t.Helper()
	res, err := RunCluster(cfg, loopTransports(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLoopbackClusterConserves(t *testing.T) {
	cfg := ClusterConfig{N: 8, Delta: 2, F: 1.2, Steps: 600, Seed: 42}
	res := runLoop(t, cfg)
	if !res.Conserved() {
		t.Fatalf("packet conservation violated: total %d", res.TotalLoad())
	}
	// The coordinator's Bye-derived accounting must agree with the
	// per-node ground truth.
	if res.Summary.Nodes != cfg.N {
		t.Fatalf("summary covers %d nodes, want %d", res.Summary.Nodes, cfg.N)
	}
	if !res.Summary.Conserved() {
		t.Fatalf("coordinator sees conservation violated: %+v", res.Summary)
	}
	if res.Summary.TotalLoad != res.TotalLoad() {
		t.Fatalf("coordinator total %d != node total %d", res.Summary.TotalLoad, res.TotalLoad())
	}
	for i, n := range res.Nodes {
		if n.ID != i {
			t.Fatalf("node %d reported id %d", i, n.ID)
		}
		if n.FinalLoad < 0 {
			t.Fatalf("node %d final load negative: %d", i, n.FinalLoad)
		}
	}
	if res.Messages() == 0 || res.Bytes() == 0 {
		t.Fatal("no traffic counted")
	}
	if res.Completed() == 0 {
		t.Fatal("no balancing operation ever completed")
	}
}

func TestLoopbackClusterBalancesHotspot(t *testing.T) {
	// One producer, seven consumers: without balancing the producer
	// would hold essentially all load.
	n := 8
	gen := make([]float64, n)
	con := make([]float64, n)
	for i := range gen {
		gen[i], con[i] = 0.05, 0.3
	}
	gen[3] = 0.95
	con[3] = 0.0
	res := runLoop(t, ClusterConfig{N: n, Delta: 2, F: 1.1, Steps: 1500,
		GenP: gen, ConP: con, Seed: 7})
	if !res.Conserved() {
		t.Fatal("packet conservation violated")
	}
	total := res.TotalLoad()
	hot := int64(res.Nodes[3].FinalLoad)
	if total > 20 && hot*2 > total {
		t.Fatalf("hot node kept %d of %d packets — balancing ineffective", hot, total)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	tr := loopTransports(2)
	good := Config{ID: 0, N: 2, Delta: 1, F: 1.2, Steps: 1,
		GenP: 0.5, ConP: 0.4, Transport: tr[0]}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.N = 1 },
		func(c *Config) { c.ID = -1 },
		func(c *Config) { c.ID = 2 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.Delta = 2 },
		func(c *Config) { c.F = 1.0 },
		func(c *Config) { c.F = 2.0 }, // F < Delta+1: no operation could complete
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.GenP = 1.5 },
		func(c *Config) { c.ConP = -0.1 },
		func(c *Config) { c.Transport = nil },
		func(c *Config) { c.Timeout = -time.Second },
	}
	for i, mutate := range bad {
		c := good
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, c)
		}
	}
}

func TestRunClusterValidation(t *testing.T) {
	if _, err := RunCluster(ClusterConfig{N: 4, Delta: 1, F: 1.2, Steps: 10}, loopTransports(3)); err == nil {
		t.Fatal("transport count mismatch accepted")
	}
	if _, err := RunCluster(ClusterConfig{N: 4, Delta: 1, F: 1.2, Steps: 10,
		GenP: []float64{0.5, 0.5}}, loopTransports(4)); err == nil {
		t.Fatal("bad probability slice length accepted")
	}
	// Invalid node config: transports must still be closed (no leak,
	// no hang) and the error surfaced.
	if _, err := RunCluster(ClusterConfig{N: 4, Delta: 0, F: 1.2, Steps: 10}, loopTransports(4)); err == nil {
		t.Fatal("invalid Delta accepted")
	}
}

func TestPerNodeProbabilities(t *testing.T) {
	// Scalar broadcast and per-node vectors both work.
	res := runLoop(t, ClusterConfig{N: 4, Delta: 1, F: 1.3, Steps: 300,
		GenP: []float64{0.9, 0.1, 0.1, 0.1}, ConP: []float64{0.2}, Seed: 3})
	if !res.Conserved() {
		t.Fatal("conservation violated")
	}
	g0 := res.Nodes[0].Generated
	for i := 1; i < 4; i++ {
		if res.Nodes[i].Generated >= g0 {
			t.Fatalf("node %d generated %d >= hot node's %d", i, res.Nodes[i].Generated, g0)
		}
	}
}

// dropFreezeReqs wraps a Transport and swallows every outbound
// FreezeReq — the node's balancing attempts all vanish into the void,
// so only the reply timeout keeps it live. Shutdown traffic passes.
type dropFreezeReqs struct {
	wire.Transport
}

func (d dropFreezeReqs) Send(to int, m wire.Msg) error {
	if m.Kind == wire.FreezeReq {
		return nil
	}
	return d.Transport.Send(to, m)
}

func TestInitiatorTimeoutKeepsNodeLive(t *testing.T) {
	// Node 1's freeze requests are all lost. Without the reply timeout
	// it would hang inflight forever and the cluster could never
	// quiesce; with it, the run completes and records the timeouts.
	ts := loopTransports(2)
	ts[1] = dropFreezeReqs{ts[1]}
	res, err := RunCluster(ClusterConfig{N: 2, Delta: 1, F: 1.1, Steps: 25,
		GenP: []float64{0.0, 1.0}, ConP: []float64{0.0},
		Seed: 9, Timeout: 30 * time.Millisecond}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[1].Timeouts == 0 {
		t.Fatal("lost freeze requests never triggered the reply timeout")
	}
	if res.Nodes[1].Aborted < res.Nodes[1].Timeouts {
		t.Fatalf("timeouts %d not reflected in aborts %d",
			res.Nodes[1].Timeouts, res.Nodes[1].Aborted)
	}
	if !res.Conserved() {
		t.Fatal("conservation violated under lost freeze requests")
	}
}

func TestReportShapes(t *testing.T) {
	res := runLoop(t, ClusterConfig{N: 3, Delta: 1, F: 1.2, Steps: 100, Seed: 11})
	if res.Spread() < 0 {
		t.Fatal("negative spread")
	}
	if res.Initiated() < res.Completed() {
		t.Fatalf("completed %d exceeds initiated %d", res.Completed(), res.Initiated())
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
}
