package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
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

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`cluster_aborts_total{reason="timeout"}`).Add(7)
	reg.Histogram(`cluster_phase_seconds{phase="reply"}`, LatencyBuckets).Observe(1e-4)

	s, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if code, body := get(t, s.URL()+"/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := get(t, s.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`cluster_aborts_total{reason="timeout"} 7`,
		`cluster_phase_seconds_count{phase="reply"} 1`,
		"# TYPE cluster_phase_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	code, body = get(t, s.URL()+"/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if _, ok := doc["memstats"]; !ok {
		t.Fatal("/debug/vars missing process memstats")
	}
	metrics, ok := doc["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars missing registry metrics: %v", doc)
	}
	if metrics[`cluster_aborts_total{reason="timeout"}`].(float64) != 7 {
		t.Fatalf("registry metric missing from /debug/vars: %v", metrics)
	}
	if code, body := get(t, s.URL()+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
	// A node serves no time series (the mux routes on the path alone).
	if code, _ := get(t, s.URL()+"/series?col=load"); code != http.StatusNotFound {
		t.Fatalf("/series = %d, want 404", code)
	}
}

// TestDebugServerExtraHandlers: DebugOptions.Extra mounts additional
// endpoints (e.g. /jobs, /health) without touching the built-ins.
func TestDebugServerExtraHandlers(t *testing.T) {
	reg := NewRegistry()
	s, err := ServeDebugOpts("127.0.0.1:0", reg, DebugOptions{
		Extra: map[string]http.HandlerFunc{
			"/jobs": func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, "jobs ok")
			},
			"/metrics": func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, "hijacked")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, body := get(t, s.URL()+"/jobs"); code != 200 || body != "jobs ok" {
		t.Fatalf("/jobs = %d %q", code, body)
	}
	if _, body := get(t, s.URL()+"/metrics"); body == "hijacked" {
		t.Fatal("built-in /metrics was overridden by Extra")
	}
}

func TestDebugServerNilRegistry(t *testing.T) {
	s, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, _ := get(t, s.URL()+"/metrics"); code != 200 {
		t.Fatalf("/metrics on nil registry = %d", code)
	}
	if code, body := get(t, s.URL()+"/debug/vars"); code != 200 || !strings.Contains(body, "metrics") {
		t.Fatalf("/debug/vars on nil registry = %d %q", code, body)
	}
}

// TestDebugServerNoLeak mirrors the cluster shutdown leak check: after
// Close returns, every server goroutine (the serve loop and any
// keep-alive connection handlers) must be gone.
func TestDebugServerNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		s, err := ServeDebug("127.0.0.1:0", NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		// Touch several endpoints so connection handlers actually spawn.
		for _, p := range []string{"/healthz", "/metrics", "/debug/vars"} {
			if code, _ := get(t, s.URL()+p); code != 200 {
				t.Fatalf("%s = %d", p, code)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Close is idempotent.
		if err := s.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	// The connections are closed; their handler goroutines are runnable
	// and leave as soon as they are scheduled.
	deadline := time.Now().Add(10 * time.Second)
	for after := runtime.NumGoroutine(); after > before; after = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

func TestServeDebugBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.0.0.1:http", nil); err == nil {
		t.Fatal("want error for a bad listen address")
	} else if !strings.Contains(fmt.Sprint(err), "debug listen") {
		t.Fatalf("unhelpful error: %v", err)
	}
}
