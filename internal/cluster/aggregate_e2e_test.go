package cluster

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"lmbalance/internal/flight"
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
// loopback-TCP cluster where every node has its *own* registry, debug
// HTTP endpoint and flight recorder (the multi-process shape), and an
// aggregator that scrapes them all afterwards. It must be able to
//
//   - re-derive the conservation audit purely from scraped metrics
//     (Σ load gauges == Σ generated − Σ consumed counters, matching the
//     coordinator's Bye accounting), and
//   - read one balancing operation's whole cross-node handshake —
//     initiate, freeze request and ack, resolve, transfer and its ack —
//     out of the per-node flight recordings, in causal order.
func TestTCPAggregatorEndToEnd(t *testing.T) {
	const n = 4
	ts, err := wire.NewLocalCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	gen := []float64{0.9, 0.9, 0.1, 0.1}
	con := []float64{0.1, 0.1, 0.4, 0.4}
	root := t.TempDir()
	nodes := make([]*Node, n)
	flights := make([]*flight.Recorder, n)
	urls := make([]string, n)
	for i, tp := range ts {
		reg := obs.NewRegistry()
		tp.Register(reg)
		srv, err := obs.ServeDebug("127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		urls[i] = srv.URL()
		if flights[i], err = flight.Open(flight.Options{Dir: filepath.Join(root, fmt.Sprintf("node-%d", i)), Node: i}); err != nil {
			t.Fatal(err)
		}
		if nodes[i], err = New(Config{
			ID: i, N: n, Delta: 2, F: 1.2, Steps: 600,
			GenP: gen[i], ConP: con[i], Seed: 42,
			Transport: flights[i].Tap(tp), Obs: reg, Flight: flights[i],
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flights {
		if err := flights[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !res.Conserved() || !res.Summary.Conserved() {
		t.Fatalf("cluster itself violated conservation: %+v", res.Summary)
	}
	if res.Completed() == 0 {
		t.Fatal("no balancing operation completed; no timeline to read")
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

	// One completed operation's handshake, read from the recordings.
	recording, err := flight.LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	ops, timelines := recording.Timelines()
	complete := 0
	for _, op := range ops {
		if handshakeInOrder(timelines[op]) {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("no operation with its whole handshake in causal order among %d recorded ops", len(ops))
	}

	// The aggregator's own endpoint serves the merged view.
	agg, err := obs.ServeAggregator("127.0.0.1:0", urls)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	code, body := httpGet(t, agg.URL()+"/cluster")
	if code != 200 || !strings.Contains(body, fmt.Sprintf(`"n": %d`, n)) {
		t.Fatalf("aggregator /cluster = %d:\n%s", code, body)
	}
}

// handshakeInOrder reports whether one operation's merged timeline holds
// its whole handshake, each step on its side of the operation — the
// initiator or a partner — and after the step before it.
func handshakeInOrder(tl []flight.Event) bool {
	if len(tl) == 0 || tl[0].Dir != flight.DirLocal || tl[0].Kind != flight.LocalInitiate {
		return false
	}
	frame := func(d flight.Dir, k wire.Kind) func(flight.Event) bool {
		return func(ev flight.Event) bool { return ev.Dir == d && ev.Msg.Kind == k }
	}
	resolve := func(ev flight.Event) bool { return ev.Dir == flight.DirLocal && ev.Kind == flight.LocalResolve }
	steps := []struct {
		onInitiator bool
		is          func(flight.Event) bool
	}{
		{false, frame(flight.DirRecv, wire.FreezeReq)},
		{false, frame(flight.DirSend, wire.FreezeAck)},
		{true, frame(flight.DirRecv, wire.FreezeAck)},
		{true, resolve},
		{true, frame(flight.DirSend, wire.Transfer)},
		{false, frame(flight.DirRecv, wire.Transfer)},
		{false, frame(flight.DirSend, wire.TransferAck)},
		{true, frame(flight.DirRecv, wire.TransferAck)},
	}
	i := 1
	for _, s := range steps {
		for i < len(tl) && !(s.is(tl[i]) && (tl[i].Node == tl[0].Node) == s.onInitiator) {
			i++
		}
		if i == len(tl) {
			return false
		}
		i++
	}
	return true
}
