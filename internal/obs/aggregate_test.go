package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusConformance is the scrape-side conformance check for
// the exporter: a registry with every metric kind (labeled counters,
// gauges, a histogram with its _bucket/_sum/_count expansion) must
// produce text that the strict parser accepts, with values and # TYPE
// headers surviving the round trip.
func TestPrometheusConformance(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`cluster_aborts_total{reason="timeout"}`).Add(7)
	reg.Counter(`cluster_aborts_total{reason="peer_frozen"}`).Add(2)
	reg.Counter("cluster_ops_total").Add(41)
	reg.Gauge(`cluster_node_load{node="3"}`).Set(12)
	h := reg.Histogram(`cluster_phase_seconds{phase="reply"}`, []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	metrics, types, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exporter output failed conformance parse: %v\n%s", err, text)
	}

	for name, want := range map[string]float64{
		`cluster_aborts_total{reason="timeout"}`:     7,
		`cluster_aborts_total{reason="peer_frozen"}`: 2,
		"cluster_ops_total":                          41,
		`cluster_node_load{node="3"}`:                12,
		`cluster_phase_seconds_count{phase="reply"}`: 3,
	} {
		if got := metrics[name]; got != want {
			t.Errorf("parsed %s = %v, want %v", name, got, want)
		}
	}
	// Histogram buckets must be cumulative and capped by +Inf == _count.
	b1 := metrics[`cluster_phase_seconds_bucket{phase="reply",le="0.001"}`]
	b2 := metrics[`cluster_phase_seconds_bucket{phase="reply",le="0.01"}`]
	b3 := metrics[`cluster_phase_seconds_bucket{phase="reply",le="0.1"}`]
	inf := metrics[`cluster_phase_seconds_bucket{phase="reply",le="+Inf"}`]
	if !(b1 <= b2 && b2 <= b3 && b3 <= inf) {
		t.Errorf("buckets not cumulative: %v %v %v %v", b1, b2, b3, inf)
	}
	if b1 != 1 || b3 != 2 || inf != 3 {
		t.Errorf("bucket counts = %v %v inf=%v, want 1 2 3", b1, b3, inf)
	}
	if inf != metrics[`cluster_phase_seconds_count{phase="reply"}`] {
		t.Error("+Inf bucket disagrees with _count")
	}
	sum := metrics[`cluster_phase_seconds_sum{phase="reply"}`]
	if math.Abs(sum-5.0505) > 1e-9 {
		t.Errorf("_sum = %v, want 5.0505", sum)
	}
	for base, want := range map[string]string{
		"cluster_aborts_total":  "counter",
		"cluster_ops_total":     "counter",
		"cluster_node_load":     "gauge",
		"cluster_phase_seconds": "histogram",
	} {
		if types[base] != want {
			t.Errorf("# TYPE %s = %q, want %q", base, types[base], want)
		}
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"name_only\n",
		"bad name 1\n",
		"name notanumber\n",
		"dup 1\ndup 2\n",
		`unbalanced{a="b" 1` + "\n",
		`x{} 1` + "\n",
		`x{a=b} 1` + "\n",
		"# TYPE x bogus\n",
		"9leading 1\n",
	} {
		if _, _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus accepted %q", bad)
		}
	}
	// Comments, blank lines and exotic-but-legal values are fine.
	ok := "# HELP x something\n\n# TYPE x counter\nx 1e9\ny{a=\"with,comma\",b=\"e=mc2\"} -0.5\n"
	m, types, err := ParsePrometheus(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("ParsePrometheus rejected valid input: %v", err)
	}
	if m["x"] != 1e9 || m[`y{a="with,comma",b="e=mc2"}`] != -0.5 || types["x"] != "counter" {
		t.Fatalf("parsed = %v types = %v", m, types)
	}
}

// newScrapeableNode builds a registry resembling one cluster node's and
// serves it.
func newScrapeableNode(t *testing.T, id int, load int64, gen, con int64) *DebugServer {
	t.Helper()
	reg := NewRegistry()
	reg.Gauge(fmt.Sprintf(`cluster_node_load{node="%d"}`, id)).Set(load)
	reg.Counter(fmt.Sprintf(`cluster_node_generated_total{node="%d"}`, id)).Add(gen)
	reg.Counter(fmt.Sprintf(`cluster_node_consumed_total{node="%d"}`, id)).Add(con)
	reg.Counter("cluster_initiations_total").Add(int64(id + 1))
	s, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAggregateMergesNodes(t *testing.T) {
	loads := []int64{10, 20, 30}
	var urls []string
	for i, ld := range loads {
		urls = append(urls, newScrapeableNode(t, i, ld, 100+int64(i), 50).URL())
	}
	v, err := Aggregate(urls)
	if err != nil {
		t.Fatal(err)
	}
	// Counters sum across nodes: 1 + 2 + 3.
	if got := v.Value("cluster_initiations_total"); got != 6 {
		t.Fatalf("summed counter = %v, want 6", got)
	}
	// Per-node gauges stay distinct lines; Dist sees all three.
	n, mean, std, vd := v.Dist(LoadGaugeBase)
	if n != 3 || mean != 20 {
		t.Fatalf("Dist = n=%d mean=%v", n, mean)
	}
	wantStd := math.Sqrt((100.0 + 0 + 100.0) / 3.0)
	if math.Abs(std-wantStd) > 1e-9 || math.Abs(vd-wantStd/20) > 1e-9 {
		t.Fatalf("Dist std=%v vd=%v, want %v %v", std, vd, wantStd, wantStd/20)
	}
	// Each node's own scrape keeps its gauge.
	if got := v.Nodes[1].Metrics[`cluster_node_load{node="1"}`]; got != 20 {
		t.Fatalf("node 1 scraped load = %v, want 20", got)
	}
}

// countingUpstream serves a one-node registry and counts every request
// it answers by method and path.
func countingUpstream(t *testing.T) (url string, counts func() map[string]int) {
	t.Helper()
	reg := NewRegistry()
	reg.Gauge(`cluster_node_load{node="0"}`).Set(4)
	var mu sync.Mutex
	seen := make(map[string]int)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		_ = reg.WritePrometheus(w)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(seen)
	}
}

// TestScrapeIsOneMetricsGet: one Aggregate call and one monitor Poll
// each issue exactly one GET /metrics per upstream and no other
// request — the aggregator and the monitor scrape through one path.
func TestScrapeIsOneMetricsGet(t *testing.T) {
	want := map[string]int{"GET /metrics": 1}
	for _, tc := range []struct {
		name   string
		scrape func(urls []string) error
	}{
		{"Aggregate", func(urls []string) error {
			_, err := Aggregate(urls)
			return err
		}},
		{"Monitor.Poll", func(urls []string) error {
			doc := NewMonitor(MonitorConfig{URLs: urls, SLO: SLO{Quantile: 0.99, Threshold: 1,
				Short: time.Second, Long: time.Minute}}).Poll(time.Now())
			if len(doc.Nodes) != len(urls) || !doc.Nodes[0].OK {
				return fmt.Errorf("poll saw %+v", doc.Nodes)
			}
			return nil
		}},
	} {
		u0, c0 := countingUpstream(t)
		u1, c1 := countingUpstream(t)
		if err := tc.scrape([]string{u0, u1}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, counts := range []func() map[string]int{c0, c1} {
			if got := counts(); !maps.Equal(got, want) {
				t.Fatalf("%s: upstream %d answered %v, want %v", tc.name, i, got, want)
			}
		}
	}
}

func TestAggregatePartialAndTotalFailure(t *testing.T) {
	s := newScrapeableNode(t, 0, 5, 10, 5)
	dead := "http://127.0.0.1:1" // nothing listens on port 1
	v, err := Aggregate([]string{s.URL(), dead})
	if err != nil {
		t.Fatalf("partial failure should degrade, not fail: %v", err)
	}
	if v.Nodes[0].Err != nil || v.Nodes[1].Err == nil {
		t.Fatalf("per-node errs = %v / %v", v.Nodes[0].Err, v.Nodes[1].Err)
	}
	if n, _, _, _ := v.Dist(LoadGaugeBase); n != 1 {
		t.Fatalf("Dist over the one live node: n=%d", n)
	}
	if _, err := Aggregate([]string{dead}); err == nil {
		t.Fatal("all-dead aggregate should error")
	}
}

// TestAggregateOptsTimeoutAndLatency: the configurable scrape timeout
// bounds how long a hung node can stall its scrape, and every node's
// scrape latency is measured whether or not it succeeded.
func TestAggregateOptsTimeoutAndLatency(t *testing.T) {
	s := newScrapeableNode(t, 0, 5, 10, 5)
	// A listener that accepts connections but never answers: only the
	// scrape timeout unblocks it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hang := "http://" + ln.Addr().String()

	start := time.Now()
	v, err := AggregateOpts([]string{s.URL(), hang}, AggOptions{Timeout: 75 * time.Millisecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("one live node should keep the view alive: %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("scrape took %v; the 75ms timeout did not bound the hung node", elapsed)
	}
	if v.Nodes[1].Err == nil {
		t.Fatal("hung node scrape should report an error")
	}
	if v.Nodes[1].Latency < 50*time.Millisecond {
		t.Fatalf("hung node latency = %v, want >= ~75ms (timeout-bounded)", v.Nodes[1].Latency)
	}
	if v.Nodes[0].Err != nil || v.Nodes[0].Latency <= 0 {
		t.Fatalf("live node: err=%v latency=%v, want nil err and measured latency", v.Nodes[0].Err, v.Nodes[0].Latency)
	}
}

// TestServeAggregatorOptsExtraAndScrapeMS: extra handlers mount on the
// aggregator mux (without overriding built-ins) and the /cluster JSON
// surfaces per-node scrape latency and error strings.
func TestServeAggregatorOptsExtraAndScrapeMS(t *testing.T) {
	s := newScrapeableNode(t, 0, 5, 10, 5)
	dead := "http://127.0.0.1:1" // nothing listens on port 1
	agg, err := ServeAggregatorOpts("127.0.0.1:0", []string{s.URL(), dead}, AggOptions{
		Timeout: 500 * time.Millisecond,
		Extra: map[string]http.HandlerFunc{
			"/custom": func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, "custom ok")
			},
			"/healthz": func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, "hijacked")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	if code, body := get(t, agg.URL()+"/custom"); code != 200 || body != "custom ok" {
		t.Fatalf("/custom = %d %q", code, body)
	}
	// The reserved path kept its built-in handler.
	if _, body := get(t, agg.URL()+"/healthz"); !strings.Contains(body, "role=aggregator") {
		t.Fatalf("/healthz was overridden: %q", body)
	}

	code, body := get(t, agg.URL()+"/cluster")
	if code != 200 {
		t.Fatalf("/cluster = %d", code)
	}
	var doc struct {
		Nodes []struct {
			OK       bool    `json:"ok"`
			ScrapeMS float64 `json:"scrape_ms"`
			Err      string  `json:"err"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/cluster not JSON: %v\n%s", err, body)
	}
	if len(doc.Nodes) != 2 {
		t.Fatalf("/cluster nodes = %+v", doc.Nodes)
	}
	if !doc.Nodes[0].OK || doc.Nodes[0].ScrapeMS <= 0 || doc.Nodes[0].Err != "" {
		t.Fatalf("live node doc = %+v", doc.Nodes[0])
	}
	if doc.Nodes[1].OK || doc.Nodes[1].Err == "" {
		t.Fatalf("dead node doc should carry its error string: %+v", doc.Nodes[1])
	}
}

func TestServeAggregatorEndpoints(t *testing.T) {
	s0 := newScrapeableNode(t, 0, 8, 20, 12)
	s1 := newScrapeableNode(t, 1, 16, 30, 14)

	agg, err := ServeAggregator("127.0.0.1:0", []string{s0.URL(), s1.URL()})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	code, body := get(t, agg.URL()+"/healthz")
	if code != 200 || !strings.Contains(body, "role=aggregator") || !strings.Contains(body, "upstreams=2") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, agg.URL()+"/cluster")
	if code != 200 {
		t.Fatalf("/cluster = %d", code)
	}
	var doc struct {
		Nodes []struct {
			OK bool `json:"ok"`
		} `json:"nodes"`
		Load struct {
			N    int     `json:"n"`
			Mean float64 `json:"mean"`
			VD   float64 `json:"vd"`
		} `json:"load"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/cluster not JSON: %v\n%s", err, body)
	}
	if len(doc.Nodes) != 2 || !doc.Nodes[0].OK || !doc.Nodes[1].OK {
		t.Fatalf("/cluster nodes = %+v", doc.Nodes)
	}
	if doc.Load.N != 2 || doc.Load.Mean != 12 {
		t.Fatalf("/cluster = %+v\n%s", doc, body)
	}

	code, body = get(t, agg.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	merged, _, err := ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatalf("aggregator /metrics failed conformance: %v\n%s", err, body)
	}
	if merged["cluster_initiations_total"] != 3 { // 1 + 2
		t.Fatalf("merged counter = %v", merged["cluster_initiations_total"])
	}

	// The aggregator serves no time series.
	if code, _ := get(t, agg.URL()+"/series?col=load&bucket_ms=1000"); code != http.StatusNotFound {
		t.Fatalf("/series = %d, want 404", code)
	}
}
