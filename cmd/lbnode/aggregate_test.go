package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"lmbalance/internal/cluster"
)

var nodeURLRe = regexp.MustCompile(`node (\d+) debug endpoints at (http://\S+):`)

// spawnPerNode starts a per-node-debug spawn cluster on a background
// goroutine and returns the n per-node debug URLs plus a done channel
// carrying the run outcome. The caller must drain done.
func spawnPerNode(t *testing.T, n, steps int) (urls []string, done chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	done = make(chan error, 1)
	go func() {
		// TCP keeps the cluster alive for seconds (wall-clock protocol
		// ticks), so the scrapes below always hit a live cluster.
		ok, err := run(options{spawn: n, transport: "tcp", f: 1.2, delta: 2,
			steps: steps, gen: 0.5, con: 0.4, hot: -1, seed: 23, quiet: true,
			debugAddr: "127.0.0.1:0", debugPerNode: true,
			seriesPeriod: 2 * time.Millisecond}, pw)
		pw.Close()
		if err == nil && !ok {
			err = fmt.Errorf("conservation violated")
		}
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	urls = make([]string, n)
	seen := 0
	for sc.Scan() {
		if m := nodeURLRe.FindStringSubmatch(sc.Text()); m != nil {
			var id int
			fmt.Sscanf(m[1], "%d", &id)
			urls[id] = m[2]
			if seen++; seen == n {
				break
			}
		}
	}
	if seen != n {
		t.Fatalf("run announced %d of %d per-node debug URLs", seen, n)
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return urls, done
}

// TestSpawnPerNodeHealthz: with -debug-per-node every node serves its
// own /healthz carrying its id and live protocol epoch.
func TestSpawnPerNodeHealthz(t *testing.T) {
	urls, done := spawnPerNode(t, 3, 4000)
	for id, url := range urls {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatalf("GET %s/healthz: %v", url, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		if lines[0] != "ok" {
			t.Fatalf("node %d /healthz first line %q", id, lines[0])
		}
		var gotNode, gotEpoch bool
		for _, ln := range lines[1:] {
			if ln == fmt.Sprintf("node=%d", id) {
				gotNode = true
			}
			if strings.HasPrefix(ln, "epoch=") {
				gotEpoch = true
			}
		}
		if !gotNode || !gotEpoch {
			t.Fatalf("node %d /healthz missing identity lines:\n%s", id, body)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestAggregateOneShot: the one-shot aggregator mode scrapes a live
// per-node spawn cluster and prints the merged cluster view.
func TestAggregateOneShot(t *testing.T) {
	urls, done := spawnPerNode(t, 4, 4000)
	var buf strings.Builder
	ok, err := run(options{aggregate: strings.Join(urls, ",")}, &buf)
	if err != nil {
		t.Fatalf("aggregate: %v\n%s", err, buf.String())
	}
	if !ok {
		t.Fatalf("aggregate reported not-ok:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"aggregated cluster view (4 upstreams)", "cluster load: 4 nodes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("aggregate output missing %q:\n%s", want, out)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestAggregateServe: with -debug-addr the aggregator serves the merged
// view live until stopped.
func TestAggregateServe(t *testing.T) {
	urls, done := spawnPerNode(t, 3, 4000)
	stop := make(chan struct{})
	pr, pw := io.Pipe()
	aggDone := make(chan error, 1)
	go func() {
		ok, err := run(options{aggregate: strings.Join(urls, ","),
			debugAddr: "127.0.0.1:0", stop: stop}, pw)
		pw.Close()
		if err == nil && !ok {
			err = fmt.Errorf("aggregator reported not-ok")
		}
		aggDone <- err
	}()
	aggRe := regexp.MustCompile(`aggregator endpoints at (http://\S+):`)
	sc := bufio.NewScanner(pr)
	var aggURL string
	for sc.Scan() {
		if m := aggRe.FindStringSubmatch(sc.Text()); m != nil {
			aggURL = m[1]
			break
		}
	}
	if aggURL == "" {
		t.Fatal("aggregator never announced its URL")
	}
	go func() {
		for sc.Scan() {
		}
	}()
	resp, err := http.Get(aggURL + "/cluster")
	if err != nil {
		t.Fatalf("GET /cluster: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /cluster = %d:\n%s", resp.StatusCode, body)
	}
	for _, want := range []string{`"nodes"`, `"load"`, `"vd"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/cluster JSON missing %q:\n%s", want, body)
		}
	}
	close(stop)
	if err := <-aggDone; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestAggregateRejectsEmpty: an -aggregate flag that lists no URLs must
// fail fast.
func TestAggregateRejectsEmpty(t *testing.T) {
	if _, err := run(options{aggregate: " , "}, &strings.Builder{}); err == nil {
		t.Fatal("empty -aggregate accepted")
	}
}

// TestDebugAddrBusyNamesNode: a per-node debug port that is already
// bound must fail the run fast, and the error must say which node and
// which address, so a multi-process operator knows what to fix.
func TestDebugAddrBusyNamesNode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	_, err = run(options{spawn: 2, transport: "inproc", f: 1.2, delta: 1,
		steps: 10, gen: 0.5, con: 0.4, hot: 0, seed: 1, quiet: true,
		debugAddr: addr, debugPerNode: true, seriesPeriod: time.Millisecond},
		&strings.Builder{})
	if err == nil {
		t.Fatal("busy -debug-addr accepted")
	}
	if !strings.Contains(err.Error(), "node 0") || !strings.Contains(err.Error(), addr) {
		t.Fatalf("error does not name node and address: %v", err)
	}
}

// TestMinInitGapPacing: a huge -min-initiate-gap defers every trigger
// after each node's first initiation, and the run reports the deferral
// episodes (distinct waits) alongside the raw trigger firings.
func TestMinInitGapPacing(t *testing.T) {
	var buf strings.Builder
	ok, err := run(options{spawn: 4, transport: "inproc", f: 1.2, delta: 2,
		steps: 2000, gen: 0.5, con: 0.4, hot: 2, seed: 5, quiet: true,
		pace: cluster.PaceFixed, minInitGap: time.Hour}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("conservation violated:\n%s", buf.String())
	}
	out := buf.String()
	m := regexp.MustCompile(`initiation pacing: fixed floor 1h0m0s  deferral episodes (\d+) \((\d+) trigger firings\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output missing pacing line:\n%s", out)
	}
	if m[1] == "0" || m[2] == "0" {
		t.Fatalf("no deferred initiations despite 1h gap:\n%s", out)
	}
}
