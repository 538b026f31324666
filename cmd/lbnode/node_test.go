package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lmbalance/internal/flight"
	"lmbalance/internal/serve"
)

// TestTeardownRunsEveryCloser: the stack runs newest first, keeps going
// past a failing closer (a recorder whose Close fails must not leave the
// ones after it unsealed) and returns the first error it met.
func TestTeardownRunsEveryCloser(t *testing.T) {
	var td teardown
	var ran []int
	errOld, errNew := errors.New("old"), errors.New("new")
	td.push(func() error { ran = append(ran, 1); return errOld })
	td.push(func() error { ran = append(ran, 2); return nil })
	td.push(func() error { ran = append(ran, 3); return errNew })
	td.do(func() { ran = append(ran, 4) })
	if err := td.run(); err != errNew {
		t.Fatalf("run returned %v, want the first failure met (%v)", err, errNew)
	}
	if want := []int{4, 3, 2, 1}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("closers ran %v, want %v", ran, want)
	}
	if err := td.run(); err != nil || len(ran) != 4 {
		t.Fatalf("a second run re-ran closers (err %v, ran %v)", err, ran)
	}
}

// auditClean loads a recording and requires the offline audit to pass:
// every node's final accounting present, no violation, every record
// judged, packets conserved.
func auditClean(t *testing.T, root string, n int) *flight.AuditResult {
	t.Helper()
	rec, err := flight.LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	a := flight.Audit(rec)
	if a.First != nil {
		t.Fatalf("recording audits dirty: %+v (of %d violations)", *a.First, len(a.Violations))
	}
	if a.FinalsSeen != n {
		t.Fatalf("finals from %d of %d nodes", a.FinalsSeen, n)
	}
	for _, na := range a.Nodes {
		if na.Unverified != 0 {
			t.Fatalf("node %d: %d records unverified in a whole recording", na.Node, na.Unverified)
		}
	}
	if !a.Conserved() {
		t.Fatalf("offline conservation violated: load %d, generated %d, consumed %d", a.TotalLoad, a.Generated, a.Consumed)
	}
	return a
}

// TestSpawnFlightRecording: a spawn run with -flight-dir leaves one
// sealed ring per node that replays clean through the auditor.
func TestSpawnFlightRecording(t *testing.T) {
	root := t.TempDir()
	var buf strings.Builder
	ok, err := run(options{spawn: 4, transport: "tcp", f: 1.2, delta: 2,
		steps: 400, gen: 0.5, con: 0.4, hot: -1, seed: 17, quiet: true, flightDir: root}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("conservation violated:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "flight recording: ") {
		t.Fatalf("no flight recording line:\n%s", buf.String())
	}
	if a := auditClean(t, root, 4); a.Generated == 0 {
		t.Fatal("the recorded run generated nothing")
	}
}

// TestDaemonFlightServeDebug drives three daemons the way three
// processes would, each with -flight-dir, -debug-addr, -serve-addr and
// -slo: jobs submitted to one node complete, the node's /healthz names
// it, the stop hook drains all three, and the recording audits clean.
func TestDaemonFlightServeDebug(t *testing.T) {
	const n = 3
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close() // free the port for the daemon (dial retry covers the gap)
	}
	var parts []string
	for i, a := range addrs {
		parts = append(parts, fmt.Sprintf("%d=%s", i, a))
	}
	root := t.TempDir()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	outs := make([]syncBuf, n)
	oks := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oks[i], errs[i] = run(options{
				id: i, listen: addrs[i], peers: strings.Join(parts, ","),
				f: 1.2, delta: 2, steps: 50_000_000, con: 0.4, seed: 29,
				stepInterval: 100 * time.Microsecond,
				serveAddr:    "127.0.0.1:0", debugAddr: "127.0.0.1:0", flightDir: root,
				slo: "p99 < 5s over 200ms/600ms", monitorPeriod: 25 * time.Millisecond,
				seriesPeriod: 10 * time.Millisecond, stop: stop,
			}, &outs[i])
		}(i)
	}
	drain := func() {
		close(stop)
		wg.Wait()
	}

	// Node 1's announcements give its front-end and debug addresses.
	var serveAddr, debugURL string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) && (serveAddr == "" || debugURL == ""); {
		for _, line := range strings.Split(outs[1].String(), "\n") {
			if s, ok := strings.CutPrefix(line, "node 1 serving clients at "); ok {
				serveAddr = s
			}
			if m := debugURLRe.FindStringSubmatch(line); m != nil {
				debugURL = m[1]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if serveAddr == "" || debugURL == "" {
		drain()
		t.Fatalf("node 1 never announced its endpoints:\n%s", outs[1].String())
	}
	c, err := serve.Dial(serveAddr)
	if err != nil {
		drain()
		t.Fatal(err)
	}
	const jobs = 30
	for i := 0; i < jobs; i++ {
		if err := c.Submit(3); err != nil {
			drain()
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); c.Completed() < jobs && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(debugURL + "/healthz")
	var health []byte
	if err == nil {
		health, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	c.Close()
	drain()
	if c.Completed() < jobs {
		t.Fatalf("only %d/%d jobs completed:\n%s", c.Completed(), jobs, outs[1].String())
	}
	if err != nil || !strings.Contains(string(health), "node=1") {
		t.Fatalf("node 1 /healthz = %q (err %v)", health, err)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || !oks[i] {
			t.Fatalf("node %d: ok=%v err=%v\n%s", i, oks[i], errs[i], outs[i].String())
		}
		for _, want := range []string{"health monitor: p99", "flight recording: ", fmt.Sprintf("node %d serving: ingested", i)} {
			if !strings.Contains(outs[i].String(), want) {
				t.Fatalf("node %d output missing %q:\n%s", i, want, outs[i].String())
			}
		}
	}
	if !strings.Contains(outs[0].String(), "cluster conservation: EXACT") {
		t.Fatalf("coordinator output missing conservation line:\n%s", outs[0].String())
	}
	a := auditClean(t, root, n)
	if a.Ingested != jobs*3 || !a.JobsConserved() {
		t.Fatalf("offline job accounting: ingested %d (want %d), done %d, held %d",
			a.Ingested, jobs*3, a.UnitsDone, a.RecordsHeld)
	}
}
