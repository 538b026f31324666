package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestTCPAggregatorEndToEnd is the multi-node observability e2e: a real
// loopback-TCP cluster where every node has its *own* registry, tracer,
// recorder and debug HTTP endpoint (the multi-process shape), and an
// aggregator that scrapes them all afterwards. It must be able to
//
//   - re-derive the conservation audit purely from scraped metrics
//     (Σ load gauges == Σ generated − Σ consumed counters, matching the
//     coordinator's Bye accounting), and
//   - stitch one balancing operation's full cross-node timeline —
//     initiate → freeze → resolve → transfer → transfer ack — out of
//     the per-process trace rings, with monotonic timestamps.
func TestTCPAggregatorEndToEnd(t *testing.T) {
	const n = 4
	ts, err := wire.NewLocalCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	gen := []float64{0.9, 0.9, 0.1, 0.1}
	con := []float64{0.1, 0.1, 0.4, 0.4}
	nodes := make([]*Node, n)
	recs := make([]*obs.Recorder, n)
	urls := make([]string, n)
	for i, tp := range ts {
		reg := obs.NewRegistry()
		tp.Register(reg)
		recs[i] = NewRecorder(reg, []int{i}, 2048)
		recs[i].Start(2 * time.Millisecond)
		srv, err := obs.ServeDebug("127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		urls[i] = srv.URL()
		if nodes[i], err = New(Config{
			ID: i, N: n, Delta: 2, F: 1.2, Steps: 600,
			GenP: gen[i], ConP: con[i], Seed: 42,
			Transport: tp, Obs: reg,
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		rec.Stop()
	}
	if !res.Conserved() || !res.Summary.Conserved() {
		t.Fatalf("cluster itself violated conservation: %+v", res.Summary)
	}
	if res.Completed() == 0 {
		t.Fatal("no balancing operation completed; nothing to stitch")
	}

	v, err := obs.Aggregate(urls)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Nodes {
		if v.Nodes[i].Err != nil {
			t.Fatalf("node %d scrape failed: %v", i, v.Nodes[i].Err)
		}
	}

	// Conservation, re-derived from scrapes alone. Each per-node series
	// exists exactly once across the registries, so the merged sums are
	// the cluster totals.
	sumBase := func(base string) (sum float64, series int) {
		for name, val := range v.Metrics {
			if strings.HasPrefix(name, base+"{") {
				sum += val
				series++
			}
		}
		return sum, series
	}
	loads, nLoad := sumBase("cluster_node_load")
	gens, nGen := sumBase("cluster_node_generated_total")
	cons, nCon := sumBase("cluster_node_consumed_total")
	if nLoad != n || nGen != n || nCon != n {
		t.Fatalf("expected %d series each, got load=%d gen=%d con=%d", n, nLoad, nGen, nCon)
	}
	if int64(gens) != res.Summary.Generated || int64(cons) != res.Summary.Consumed {
		t.Fatalf("scraped totals gen=%v con=%v != audit gen=%d con=%d",
			gens, cons, res.Summary.Generated, res.Summary.Consumed)
	}
	if int64(loads) != res.Summary.TotalLoad {
		t.Fatalf("scraped held load %v != audit %d", loads, res.Summary.TotalLoad)
	}
	if loads != gens-cons {
		t.Fatalf("scraped conservation violated: %v != %v - %v", loads, gens, cons)
	}
	// The global VD over per-node gauges must agree with Dist.
	if dn, _, _, _ := v.Dist("cluster_node_load"); dn != n {
		t.Fatalf("Dist saw %d nodes", dn)
	}

	// Stitch one completed operation's full cross-node timeline.
	wantKinds := []string{"initiate", "freeze", "resolve", "transfer", "transfer_ack"}
	var fullOp uint64
	var timeline []obs.Event
	for _, op := range v.OpIDs() {
		evs := v.Ops[op]
		have := make(map[string]bool, len(evs))
		for _, ev := range evs {
			have[ev.Kind] = true
		}
		complete := true
		for _, k := range wantKinds {
			if !have[k] {
				complete = false
				break
			}
		}
		if complete {
			fullOp, timeline = op, evs
			break
		}
	}
	if fullOp == 0 {
		t.Fatalf("no operation with a full %v timeline among %d stitched ops", wantKinds, len(v.Ops))
	}
	// Monotonic timestamps across the merged timeline...
	for i := 1; i < len(timeline); i++ {
		if timeline[i].At.Before(timeline[i-1].At) {
			t.Fatalf("op %#x timeline not monotone: %+v", fullOp, timeline)
		}
	}
	// ...with the right causal order of phases, spanning >= 2 processes.
	at := func(kind string) time.Time {
		for _, ev := range timeline {
			if ev.Kind == kind {
				return ev.At
			}
		}
		panic("unreachable: " + kind)
	}
	prev := at(wantKinds[0])
	for _, k := range wantKinds[1:] {
		if cur := at(k); cur.Before(prev) {
			t.Fatalf("op %#x: first %q precedes its cause: %+v", fullOp, k, timeline)
		} else {
			prev = cur
		}
	}
	nodesSeen := make(map[int]bool)
	initiator := -1
	for _, ev := range timeline {
		nodesSeen[ev.Node] = true
		if ev.Kind == "initiate" {
			initiator = ev.Node
		}
	}
	if len(nodesSeen) < 2 {
		t.Fatalf("op %#x timeline does not cross processes: %+v", fullOp, timeline)
	}
	for _, ev := range timeline {
		switch ev.Kind {
		case "initiate", "resolve", "transfer_ack":
			if ev.Node != initiator {
				t.Fatalf("op %#x: %s on node %d, initiator is %d", fullOp, ev.Kind, ev.Node, initiator)
			}
		case "freeze", "transfer":
			if ev.Node == initiator {
				t.Fatalf("op %#x: %s on the initiator: %+v", fullOp, ev.Kind, timeline)
			}
		}
	}

	// The per-node recorders were scraped and merge into one cluster
	// load trajectory.
	pts := v.MergeSeries("load", 50*time.Millisecond)
	if len(pts) == 0 {
		t.Fatal("no merged load trajectory")
	}
	maxN := 0
	for _, p := range pts {
		if p.N > maxN {
			maxN = p.N
		}
	}
	if maxN != n {
		t.Fatalf("merged trajectory never saw all %d nodes (max %d)", n, maxN)
	}

	// The aggregator's own endpoint serves the merged view.
	agg, err := obs.ServeAggregator("127.0.0.1:0", urls)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	code, body := httpGet(t, agg.URL()+fmt.Sprintf("/trace?op=%d", fullOp))
	if code != 200 {
		t.Fatalf("aggregator /trace = %d", code)
	}
	if got := strings.Count(strings.TrimSpace(body), "\n") + 1; got != len(timeline) {
		t.Fatalf("aggregator served %d timeline lines, stitched %d", got, len(timeline))
	}
}
