package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", LatencyBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// Every operation on the nil handles must be safe and inert.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if h.Mean() != 0 || h.Std() != 0 || h.VD() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram summaries must be zero")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote prometheus output: %q", buf.String())
	}
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "{}" {
		t.Fatalf("nil registry JSON = %q, want {}", buf.String())
	}
	reg.Attach("x", new(Counter))
}

// TestDisabledPathAllocationFree: instrumentation stays compiled into
// every hot path because a nil registry's handles cost nothing — the
// allocation half of that promise, asserted (the nanoseconds are the
// ledger's obs.disabled_ns).
func TestDisabledPathAllocationFree(t *testing.T) {
	c := nilReg.Counter("c")
	g := nilReg.Gauge("g")
	h := nilReg.Histogram("h", LatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(5)
		g.Set(3)
		g.Add(-1)
		g.Max(7)
		h.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("nil-registry handles allocated %v times per run, want 0", allocs)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := reg.Counter("ops_total"); c2 != c {
		t.Fatal("same name must return the same counter")
	}
	g := reg.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// A name registered as one kind does not alias another kind.
	if reg.Gauge("ops_total") != nil {
		t.Fatal("kind mismatch must yield a nil (no-op) handle")
	}
	if reg.Counter("depth") != nil {
		t.Fatal("kind mismatch must yield a nil (no-op) handle")
	}
}

func TestAttachPublishesExternalMetric(t *testing.T) {
	reg := NewRegistry()
	var own Counter // zero value usable standalone
	own.Add(9)
	reg.Attach("external_total", &own)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "external_total 9") {
		t.Fatalf("attached counter missing from exposition:\n%s", buf.String())
	}
	// First registration wins.
	other := new(Counter)
	reg.Attach("external_total", other)
	if reg.Counter("external_total") != &own {
		t.Fatal("second Attach must not replace the first metric")
	}
}

func TestHistogramBucketsAndMoments(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	_, counts := h.Buckets()
	want := []int64{2, 1, 1, 1} // ≤1: {0.5,1}; ≤2: {1.5}; ≤4: {3}; +Inf: {100}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, c, want[i], counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	wantMean := (0.5 + 1 + 1.5 + 3 + 100) / 5
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	if h.Std() <= 0 || h.VD() <= 0 {
		t.Fatalf("std/vd must be positive: %v %v", h.Std(), h.VD())
	}
	// Constant series: std clamps to exactly 0, VD 0.
	hc := NewHistogram(LoadBuckets)
	for i := 0; i < 100; i++ {
		hc.Observe(3)
	}
	if hc.Std() != 0 || hc.VD() != 0 {
		t.Fatalf("constant series std=%v vd=%v, want 0", hc.Std(), hc.VD())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in bucket (1,2]
	}
	q := h.Quantile(0.5)
	if q < 1 || q > 2 {
		t.Fatalf("median %v outside its bucket (1,2]", q)
	}
	h.Observe(1e9) // overflow bucket
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("overflow quantile reports its lower bound: got %v, want 8", q)
	}
}

func TestVDMatchesDefinition(t *testing.T) {
	// VD from online moments must match the direct computation.
	vals := []float64{3, 7, 1, 9, 4, 4, 6, 2}
	h := NewHistogram(LoadBuckets)
	var sum, sumsq float64
	for _, v := range vals {
		h.Observe(v)
		sum += v
		sumsq += v * v
	}
	n := float64(len(vals))
	mean := sum / n
	want := math.Sqrt(sumsq/n-mean*mean) / mean
	if math.Abs(h.VD()-want) > 1e-12 {
		t.Fatalf("VD = %v, want %v", h.VD(), want)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`aborts_total{reason="timeout"}`).Add(3)
	reg.Counter(`aborts_total{reason="peer_frozen"}`).Add(5)
	reg.Gauge("queue_depth").Set(2)
	h := reg.Histogram(`phase_seconds{phase="reply"}`, []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE aborts_total counter",
		`aborts_total{reason="timeout"} 3`,
		`aborts_total{reason="peer_frozen"} 5`,
		"# TYPE queue_depth gauge",
		"queue_depth 2",
		"# TYPE phase_seconds histogram",
		`phase_seconds_bucket{phase="reply",le="0.001"} 1`,
		`phase_seconds_bucket{phase="reply",le="+Inf"} 2`,
		`phase_seconds_count{phase="reply"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per base name, even with two labeled series.
	if strings.Count(out, "# TYPE aborts_total") != 1 {
		t.Fatalf("duplicated TYPE header:\n%s", out)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(2)
	reg.Histogram("lat", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc["a_total"].(float64) != 2 {
		t.Fatalf("a_total = %v", doc["a_total"])
	}
	hist := doc["lat"].(map[string]any)
	if hist["count"].(float64) != 1 {
		t.Fatalf("histogram count = %v", hist["count"])
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared_total")
			h := reg.Histogram("shared_hist", LatencyBuckets)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i))
			}
		}()
	}
	// Concurrent exports must be safe too.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			_ = reg.WritePrometheus(&buf)
			_ = reg.WriteJSON(&buf)
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("shared_hist", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestPrometheusCountMatchesBuckets scrapes a histogram while another
// goroutine observes into it: every exposition must carry a _count equal
// to its +Inf bucket, however the scrape interleaves with the observes.
func TestPrometheusCountMatchesBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", LatencyBuckets)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(1e-3)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 2000; i++ {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		m, _, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if inf, count := m[`h_bucket{le="+Inf"}`], m["h_count"]; inf != count {
			t.Fatalf("scrape %d: +Inf bucket %v, _count %v", i, inf, count)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}
