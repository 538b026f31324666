package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lmbalance/internal/serve"
)

func TestParsePeers(t *testing.T) {
	table, err := parsePeers("0=127.0.0.1:7100, 1=127.0.0.1:7101,2=host:7102")
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 3 || table[2] != "host:7102" {
		t.Fatalf("parsed %v", table)
	}
	for _, bad := range []string{
		"",            // empty
		"0=a:1,0=b:2", // duplicate id
		"0=a:1,2=b:2", // gap
		"1=a:1,2=b:2", // not starting at 0
		"0=a:1,x=b:2", // non-numeric id
		"0=a:1,1",     // missing =
		"0=a:1,1=",    // empty address
	} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

func TestSpawnTCP(t *testing.T) {
	var buf strings.Builder
	ok, err := run(options{spawn: 4, transport: "tcp", f: 1.2, delta: 1,
		steps: 300, gen: 0.5, con: 0.4, hot: -1, seed: 7}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("conservation violated:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"4-node cluster over tcp", "conservation: EXACT", "wire bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSpawnInproc(t *testing.T) {
	var buf strings.Builder
	ok, err := run(options{spawn: 6, transport: "inproc", f: 1.1, delta: 2,
		steps: 300, gen: 0.5, con: 0.4, hot: 2, seed: 8, quiet: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("conservation violated:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "cluster over inproc") {
		t.Fatal("-quiet still printed the per-node table")
	}
}

// TestSpawnClampsDelta: a 2-node cluster with the default -delta 2
// must run (δ clamped to n−1 = 1), like lbsim.
func TestSpawnClampsDelta(t *testing.T) {
	var buf strings.Builder
	ok, err := run(options{spawn: 2, transport: "inproc", f: 1.2, delta: 2,
		steps: 200, gen: 0.5, con: 0.4, hot: 1, seed: 9, quiet: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("conservation violated:\n%s", buf.String())
	}
}

func TestSpawnRejectsBadOptions(t *testing.T) {
	if _, err := run(options{spawn: 1}, &strings.Builder{}); err == nil {
		t.Fatal("1-node spawn accepted")
	}
	if _, err := run(options{spawn: 4, transport: "carrier-pigeon"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if _, err := run(options{peers: ""}, &strings.Builder{}); err == nil {
		t.Fatal("daemon mode without peers accepted")
	}
}

// syncBuf lets the test read run()'s incremental output while the run
// is still going, and wait for the next write.
type syncBuf struct {
	mu    sync.Mutex
	sb    strings.Builder
	wrote chan struct{} // signalled after each Write; made on first use
}

// signal returns the write signal. The caller holds mu.
func (b *syncBuf) signal() chan struct{} {
	if b.wrote == nil {
		b.wrote = make(chan struct{}, 1)
	}
	return b.wrote
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, err := b.sb.Write(p)
	select {
	case b.signal() <- struct{}{}:
	default:
	}
	return n, err
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// waitFor calls found with the output so far, and again after each
// later Write, until found reports true or timeout passes.
func (b *syncBuf) waitFor(timeout time.Duration, found func(out string) bool) {
	deadline := time.After(timeout)
	for {
		b.mu.Lock()
		out, wrote := b.sb.String(), b.signal()
		b.mu.Unlock()
		if found(out) {
			return
		}
		select {
		case <-wrote:
		case <-deadline:
			return
		}
	}
}

// waitCompleted yields until c has seen n job completions or timeout
// passes.
func waitCompleted(c *serve.Client, n int64, timeout time.Duration) {
	for deadline := time.Now().Add(timeout); c.Completed() < n && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// TestSpawnServeWithMonitor: a serving spawn cluster with -slo runs the
// health monitor and mounts /jobs and /health on the debug endpoint;
// submitted jobs show up as journey samples and the monitor reports on
// the live cluster.
func TestSpawnServeWithMonitor(t *testing.T) {
	stop := make(chan struct{})
	buf := &syncBuf{}
	done := make(chan struct{})
	var ok bool
	var runErr error
	go func() {
		defer close(done)
		ok, runErr = run(options{
			spawn: 3, transport: "inproc", f: 1.2, delta: 1,
			steps: 50_000_000, con: 0.4, hot: -1, seed: 21, quiet: true,
			stepInterval: 100 * time.Microsecond,
			serveAddr:    "127.0.0.1:0", debugAddr: "127.0.0.1:0",
			slo: "p99 < 5s over 200ms/600ms", monitorPeriod: 25 * time.Millisecond,
			stop: stop,
		}, buf)
	}()

	// Wait for the serve and debug endpoints to announce themselves.
	var serveAddr, debugURL string
	buf.waitFor(5*time.Second, func(out string) bool {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "node 0 serving clients at ") {
				serveAddr = strings.TrimPrefix(line, "node 0 serving clients at ")
			}
			if strings.HasPrefix(line, "debug endpoints at ") {
				debugURL = strings.Fields(strings.TrimPrefix(line, "debug endpoints at "))[0]
			}
		}
		return serveAddr != "" && debugURL != ""
	})
	if serveAddr == "" || debugURL == "" {
		close(stop)
		<-done
		t.Fatalf("endpoints never announced (err=%v):\n%s", runErr, buf.String())
	}

	c, err := serve.Dial(serveAddr)
	if err != nil {
		close(stop)
		<-done
		t.Fatal(err)
	}
	const jobs = 20
	for i := 0; i < jobs; i++ {
		if err := c.Submit(2); err != nil {
			t.Fatal(err)
		}
	}
	waitCompleted(c, jobs, 10*time.Second)
	if c.Completed() < jobs {
		close(stop)
		<-done
		t.Fatalf("only %d/%d jobs completed:\n%s", c.Completed(), jobs, buf.String())
	}

	httpGet := func(path string) string {
		resp, err := http.Get(debugURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	// /jobs carries the completed journeys with their decomposition.
	jobsBody := httpGet("/jobs")
	lines := strings.Split(strings.TrimSpace(jobsBody), "\n")
	if len(lines) < jobs {
		t.Fatalf("/jobs has %d lines, want >= %d:\n%s", len(lines), jobs, jobsBody)
	}
	var sample struct {
		Sojourn float64 `json:"sojourn_s"`
		Units   int     `json:"units"`
		Stamped bool    `json:"stamped"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &sample); err != nil {
		t.Fatalf("/jobs line not JSON: %v: %s", err, lines[0])
	}
	if sample.Units != 2 || !sample.Stamped || sample.Sojourn <= 0 {
		t.Fatalf("/jobs sample = %+v", sample)
	}

	// /health serves the monitor's document over the live cluster.
	var doc struct {
		SLO    string `json:"slo"`
		Status string `json:"status"`
		Nodes  []struct {
			Verdict string `json:"verdict"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(httpGet("/health")), &doc); err != nil {
		t.Fatalf("/health not JSON: %v", err)
	}
	if !strings.Contains(doc.SLO, "p99") || len(doc.Nodes) != 1 {
		t.Fatalf("/health doc = %+v", doc)
	}
	if doc.Status == "alerting" {
		t.Fatalf("generous 5s SLO must not alert: %+v", doc)
	}

	c.Close()
	close(stop)
	<-done
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, buf.String())
	}
	if !ok {
		t.Fatalf("conservation violated:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "health monitor: p99") {
		t.Fatalf("monitor banner missing:\n%s", buf.String())
	}
}

// TestDaemonModeMultiNode drives the daemon path as a real multi-node
// cluster: three nodes, each with its own listener and the same static
// peer table, exactly as three separate processes would run.
func TestDaemonModeMultiNode(t *testing.T) {
	// Reserve three ports.
	const n = 3
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var parts []string
	for i, a := range addrs {
		parts = append(parts, fmt.Sprintf("%d=%s", i, a))
	}
	peerFlag := strings.Join(parts, ",")
	for _, ln := range lns {
		ln.Close() // free the ports for the daemons (dial retry covers the gap)
	}

	var wg sync.WaitGroup
	outs := make([]strings.Builder, n)
	oks := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oks[i], errs[i] = run(options{
				id: i, listen: addrs[i], peers: peerFlag,
				f: 1.2, delta: 1, steps: 300, gen: 0.5, con: 0.4, hot: 1, seed: 11,
			}, &outs[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v\n%s", i, errs[i], outs[i].String())
		}
		if !oks[i] {
			t.Fatalf("node %d reported violation:\n%s", i, outs[i].String())
		}
	}
	if !strings.Contains(outs[0].String(), "cluster conservation: EXACT") {
		t.Fatalf("coordinator output missing conservation line:\n%s", outs[0].String())
	}
}
