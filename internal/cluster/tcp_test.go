package cluster

import (
	"runtime"
	"testing"
	"time"

	"lmbalance/internal/wire"
)

// TestTCPClusterIntegration is the wire-level end-to-end check: ten
// nodes in one process, every protocol byte over real loopback TCP
// sockets, a producer/consumer workload with a hot quarter, exact
// packet conservation, and a clean quiescent shutdown that leaks no
// goroutines.
func TestTCPClusterIntegration(t *testing.T) {
	before := runtime.NumGoroutine()

	const n = 10
	ts, err := wire.NewLocalCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	transports := make([]wire.Transport, n)
	for i, tp := range ts {
		transports[i] = tp
	}
	// Producer/consumer split: the first quarter generates hot, the
	// rest mostly consume — load must flow across the sockets.
	gen := make([]float64, n)
	con := make([]float64, n)
	for i := range gen {
		if i < n/4 {
			gen[i], con[i] = 0.9, 0.1
		} else {
			gen[i], con[i] = 0.1, 0.3
		}
	}
	res, err := RunCluster(ClusterConfig{N: n, Delta: 2, F: 1.2, Steps: 800,
		GenP: gen, ConP: con, Seed: 1993}, transports)
	if err != nil {
		t.Fatal(err)
	}

	if !res.Conserved() {
		t.Fatalf("packet conservation violated over TCP: total %d", res.TotalLoad())
	}
	if !res.Summary.Conserved() {
		t.Fatalf("coordinator's Bye accounting violated: %+v", res.Summary)
	}
	if res.Summary.TotalLoad != res.TotalLoad() {
		t.Fatalf("coordinator total %d != node total %d", res.Summary.TotalLoad, res.TotalLoad())
	}
	if res.Completed() == 0 {
		t.Fatal("no balancing operation completed over TCP")
	}
	if res.Bytes() == 0 {
		t.Fatal("no bytes counted on the wire")
	}
	var recv int64
	for _, nd := range res.Nodes {
		recv += nd.BytesRecv
	}
	if recv == 0 {
		t.Fatal("no bytes received")
	}
	// Frames: every sent byte is either received or still sat in a
	// kernel buffer at close (late releases to already-retired nodes),
	// so received can be at most sent.
	if recv > res.Bytes() {
		t.Fatalf("received %d bytes > sent %d", recv, res.Bytes())
	}
	for i, nd := range res.Nodes {
		if nd.Generated == 0 && gen[i] > 0.5 {
			t.Fatalf("hot node %d generated nothing", i)
		}
	}

	// Clean shutdown: every transport goroutine (accept loops, readers,
	// link dialers) and every node goroutine must be gone. Give stragglers a
	// grace window — conn teardown is asynchronous.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPClusterSmall exercises the N=2 edge (coordinator plus one
// peer, δ=1) over real sockets.
func TestTCPClusterSmall(t *testing.T) {
	ts, err := wire.NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCluster(ClusterConfig{N: 2, Delta: 1, F: 1.2, Steps: 300, Seed: 5},
		[]wire.Transport{ts[0], ts[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatal("conservation violated")
	}
}

// TestOneCPUFreeRunning: a free-running node loop does not yield after
// each step, so on one CPU the node loops, link dialers and socket
// readers hand the processor over only by blocking or preemption. An
// 8-node cluster must still finish there, over TCP and over loopback,
// conserve packets by both audits and complete operations.
func TestOneCPUFreeRunning(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, loopback := range []bool{false, true} {
		name := map[bool]string{false: "tcp", true: "loopback"}[loopback]
		t.Run(name, func(t *testing.T) {
			const n = 8
			ts, err := wire.LocalTransports(n, loopback)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var res *Result
			go func() {
				defer close(done)
				res, err = RunCluster(ClusterConfig{N: n, Delta: 2, F: 1.2, Steps: 2000, Seed: 11}, ts)
			}()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatal("cluster did not finish on one CPU")
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Conserved() || !res.Summary.Conserved() {
				t.Fatalf("conservation violated: nodes total %d, coordinator %+v", res.TotalLoad(), res.Summary)
			}
			if res.Completed() == 0 {
				t.Fatal("no balancing operation completed")
			}
		})
	}
}
