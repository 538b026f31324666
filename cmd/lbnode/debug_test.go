package main

import (
	"bufio"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var debugURLRe = regexp.MustCompile(`debug endpoints at (http://\S+):`)

// TestSpawnDebugEndpoints runs a TCP spawn cluster with -debug-addr and
// scrapes /metrics while the cluster is live: the exposition must carry
// the per-reason abort counters, the per-phase histograms and the wire
// traffic series. Afterwards the server must be gone (no leaked
// goroutines, port closed).
func TestSpawnDebugEndpoints(t *testing.T) {
	before := runtime.NumGoroutine()

	pr, pw := io.Pipe()
	type outcome struct {
		ok  bool
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		// Enough steps that the cluster is still running when the test
		// scrapes; the run ends on its own either way.
		ok, err := run(options{spawn: 8, transport: "tcp", f: 1.2, delta: 2,
			steps: 4000, gen: 0.5, con: 0.4, hot: -1, seed: 7, quiet: true,
			debugAddr: "127.0.0.1:0"}, pw)
		pw.Close()
		done <- outcome{ok, err}
	}()

	// The first output line announces the debug URL.
	sc := bufio.NewScanner(pr)
	var url string
	for sc.Scan() {
		if m := debugURLRe.FindStringSubmatch(sc.Text()); m != nil {
			url = m[1]
			break
		}
	}
	if url == "" {
		t.Fatal("run never announced the debug endpoint URL")
	}
	// Keep draining so the run is never blocked on the pipe.
	go func() {
		for sc.Scan() {
		}
	}()

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %d, %v", resp.StatusCode, err)
	}
	metrics := string(body)
	for _, want := range []string{
		`cluster_aborts_total{reason="peer_frozen"}`,
		`cluster_aborts_total{reason="timeout"}`,
		`cluster_phase_seconds_bucket{phase="collect"`,
		`wire_msgs_sent_total{node="0"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if code := getStatus(t, url+"/healthz"); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.ok {
		t.Fatal("conservation violated")
	}

	// The deferred Close in run must have torn the server down.
	http.DefaultClient.CloseIdleConnections()
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("debug server still serving after the run ended")
	}
	// The closed connections' goroutines are runnable and leave as soon
	// as they are scheduled.
	runtime.GC()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestDebugAddrRejected: a bad -debug-addr must fail fast, before any
// cluster work starts.
func TestDebugAddrRejected(t *testing.T) {
	var sb strings.Builder
	if _, err := run(options{spawn: 2, transport: "inproc", f: 1.2, delta: 1,
		steps: 10, gen: 0.5, con: 0.4, hot: 0, seed: 1, quiet: true,
		debugAddr: "256.0.0.1:http"}, &sb); err == nil {
		t.Fatal("bad -debug-addr accepted")
	}
}
