package lmbalance

import "testing"

func TestNewSystemFacade(t *testing.T) {
	s, err := NewSystem(8, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Generate(0)
	}
	if s.TotalLoad() != 100 {
		t.Fatalf("total load %d", s.TotalLoad())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Load has spread beyond the generator.
	if s.Load(0) == 100 {
		t.Fatal("no balancing happened")
	}
}

func TestSimulatePaperFacade(t *testing.T) {
	res, err := SimulatePaper(DefaultParams(), 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 || res.Avg.Len() != 500 {
		t.Fatal("unexpected result shape")
	}
}

func TestTheoryFacade(t *testing.T) {
	fix := FIX(64, 1, 1.1)
	if fix <= 1 || fix > FixLimit(1, 1.1) {
		t.Fatalf("FIX = %v outside (1, limit]", fix)
	}
	if g := OperatorG(64, 1, 1.1, fix); g < fix-1e-9 || g > fix+1e-9 {
		t.Fatal("G(FIX) != FIX")
	}
	if c := OperatorC(64, 1, 1.1, 1.0); c >= 1 {
		t.Fatalf("C(1) = %v, want < 1", c)
	}
	want := 1.1 * 1.1 / 0.9
	if got := Theorem4Bound(1, 1.1); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("Theorem4Bound = %v", got)
	}
}

func TestClusterNodeFacade(t *testing.T) {
	// A three-node cluster embedded entirely through the facade: build
	// the loopback fabric, start each node, wait for the quiescent
	// shutdown, and check the coordinator's conservation summary.
	const n = 3
	net := NewLoopback(n)
	nodes := make([]*ClusterNode, n)
	for i := 0; i < n; i++ {
		nd, err := StartNode(NodeConfig{
			ID: i, N: n, Delta: 1, F: 1.2, Steps: 200,
			GenP: 0.5, ConP: 0.4, Seed: 17, Transport: net.Transport(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	var total, gen, con int64
	var summary *NodeReport
	for i, nd := range nodes {
		rep, err := nd.Wait()
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		var s NodeStats = rep.Stats
		total += int64(s.FinalLoad)
		gen += s.Generated
		con += s.Consumed
		if s.BytesSent == 0 {
			t.Fatalf("node %d sent no bytes", i)
		}
		if rep.Summary != nil {
			summary = rep
		}
	}
	if total != gen-con {
		t.Fatalf("conservation violated: held %d, generated %d, consumed %d", total, gen, con)
	}
	if summary == nil || !summary.Summary.Conserved() {
		t.Fatal("coordinator summary missing or inconsistent")
	}
	if _, err := StartNode(NodeConfig{N: 1}); err == nil {
		t.Fatal("invalid node config accepted")
	}
}

func TestAggregateFacade(t *testing.T) {
	// Two "nodes", each a registry behind its own debug server, merged
	// through the facade aggregator: metrics sum by name and the
	// per-node load gauges fold into one distribution.
	urls := make([]string, 2)
	for i := range urls {
		reg := NewRegistry()
		reg.Counter(`cluster_ops_total`).Add(int64(10 * (i + 1)))
		reg.Gauge(`cluster_node_load{node="` + []string{"0", "1"}[i] + `"}`).Set(int64(100 + 20*i))
		srv, err := ServeDebug("127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		urls[i] = srv.URL()
	}
	v, err := Aggregate(urls)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Value("cluster_ops_total"); got != 30 {
		t.Fatalf("summed counter = %v, want 30", got)
	}
	n, mean, _, _ := v.Dist("cluster_node_load")
	if n != 2 || mean != 110 {
		t.Fatalf("load distribution n=%d mean=%v, want n=2 mean=110", n, mean)
	}
	agg, err := ServeAggregator("127.0.0.1:0", urls)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if agg.URL() == "" {
		t.Fatal("aggregator has no URL")
	}
}
