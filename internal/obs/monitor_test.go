package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseSLO(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SLO
	}{
		{"p99 < 20ms over 30s/5m", SLO{0.99, 0.020, 30 * time.Second, 5 * time.Minute, 2}},
		{"p99<20ms over 30s/5m", SLO{0.99, 0.020, 30 * time.Second, 5 * time.Minute, 2}},
		{"P99.9 < 1s over 1m/10m burn 14.4", SLO{0.999, 1, time.Minute, 10 * time.Minute, 14.4}},
		{"p50<500us over 100ms/1s burn=3", SLO{0.50, 0.0005, 100 * time.Millisecond, time.Second, 3}},
	} {
		got, err := ParseSLO(tc.in)
		if err != nil {
			t.Errorf("ParseSLO(%q): %v", tc.in, err)
			continue
		}
		if math.Abs(got.Quantile-tc.want.Quantile) > 1e-12 ||
			math.Abs(got.Threshold-tc.want.Threshold) > 1e-12 ||
			got.Short != tc.want.Short || got.Long != tc.want.Long ||
			math.Abs(got.Burn-tc.want.Burn) > 1e-12 {
			t.Errorf("ParseSLO(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// String() round trips through the parser.
		again, err := ParseSLO(got.String())
		if err != nil || again != got {
			t.Errorf("ParseSLO(%q).String() = %q did not round trip: %+v, %v", tc.in, got.String(), again, err)
		}
	}
	for _, bad := range []string{
		"", "99<20ms over 30s/5m", "p99 20ms over 30s/5m", "p0<20ms over 30s/5m",
		"p100<20ms over 30s/5m", "p99<20ms", "p99<20ms over 30s", "p99<20ms over 5m/30s",
		"p99<-5ms over 30s/5m", "p99<20ms over 30s/5m burn -1", "p99<bogus over 30s/5m",
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO accepted %q", bad)
		}
	}
}

// rowFrom builds a monitor row ([_count, cumulative bucket counts…,
// +Inf]) from observations against the given bounds, as pushRow
// assembles one from a scrape.
func rowFrom(bounds []float64, obs []float64) []float64 {
	h := NewHistogram(bounds)
	for _, v := range obs {
		h.Observe(v)
	}
	_, counts := h.Buckets()
	row := []float64{float64(h.Count())}
	cum := 0.0
	for _, c := range counts {
		cum += float64(c)
		row = append(row, cum)
	}
	return row
}

func TestBurnRateMath(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	window := func(cur, old []float64, q float64) (bad, quant float64) {
		m := &Monitor{bounds: bounds, cfg: MonitorConfig{SLO: SLO{Quantile: q, Threshold: 0.01}}}
		_, bad, quant = m.window(cur, old)
		return bad, quant
	}
	old := rowFrom(bounds, nil)
	// 80 fast (5ms) + 20 slow (0.5s) completions; threshold 10ms.
	var obs []float64
	for i := 0; i < 80; i++ {
		obs = append(obs, 0.005)
	}
	for i := 0; i < 20; i++ {
		obs = append(obs, 0.5)
	}
	cur := rowFrom(bounds, obs)

	if got, _ := window(cur, old, 0.99); math.Abs(got-0.20) > 1e-9 {
		t.Errorf("bad fraction = %v, want 0.20", got)
	}
	// All 100 sit below 1s, so p99 interpolates inside the (0.1, 1]
	// bucket that holds the 20 slow ones.
	if _, q := window(cur, old, 0.99); q <= 0.1 || q > 1 {
		t.Errorf("window p99 = %v, want in (0.1, 1]", q)
	}
	// p50 sits in the (0.001, 0.01] bucket with the fast 80.
	if _, q := window(cur, old, 0.50); q <= 0.001 || q > 0.01 {
		t.Errorf("window p50 = %v, want in (0.001, 0.01]", q)
	}
	// Empty window: no bad fraction, no quantile.
	if f, q := window(cur, cur, 0.99); f != 0 || q != 0 {
		t.Errorf("empty window bad frac = %v, quantile = %v", f, q)
	}
	// The delta is window-local: a later row with only fast completions
	// has zero bad fraction even though cur still holds the old slow
	// ones cumulatively.
	cur2 := rowFrom(bounds, append(append([]float64(nil), obs...), 0.002, 0.003))
	if f, _ := window(cur2, cur, 0.99); f != 0 {
		t.Errorf("fast-only delta bad frac = %v, want 0", f)
	}
}

// monitorNode serves a registry with a sojourn histogram plus the load
// gauge, returning the server, registry and histogram handle.
func monitorNode(t *testing.T, id int, load int64) (*DebugServer, *Registry, *Histogram) {
	t.Helper()
	reg := NewRegistry()
	reg.Gauge(fmt.Sprintf(`cluster_node_load{node="%d"}`, id)).Set(load)
	h := reg.Histogram(fmt.Sprintf(`serve_sojourn_seconds{node="%d"}`, id), SojournBuckets)
	s, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, reg, h
}

// TestMonitorAlertAndClear drives a monitor by hand through good →
// bad → good traffic and checks the multi-window burn-rate alert
// fires, is counted, and clears.
func TestMonitorAlertAndClear(t *testing.T) {
	s, reg, h := monitorNode(t, 0, 4)
	slo, err := ParseSLO("p99 < 20ms over 80ms/240ms")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(MonitorConfig{
		URLs:   []string{s.URL()},
		SLO:    slo,
		Period: 40 * time.Millisecond,
		Obs:    reg,
	})

	// Baseline + healthy traffic: burn stays ~0.
	now := time.Now()
	m.Poll(now)
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}
	now = now.Add(30 * time.Millisecond)
	doc := m.Poll(now)
	if doc.Alerting || doc.BurnShort > 0.01 {
		t.Fatalf("healthy traffic alerting: %+v", doc)
	}
	if doc.Status != "ok" {
		t.Fatalf("healthy status = %q", doc.Status)
	}

	// Latency regression: everything lands at 200ms >> 20ms.
	for i := 0; i < 100; i++ {
		h.Observe(0.2)
	}
	now = now.Add(30 * time.Millisecond)
	doc = m.Poll(now)
	if !doc.Alerting || doc.Status != "alerting" {
		t.Fatalf("regression not alerting: %+v", doc)
	}
	if doc.BurnShort < slo.Burn || doc.BurnLong < slo.Burn {
		t.Fatalf("burn rates = %v/%v, want >= %v", doc.BurnShort, doc.BurnLong, slo.Burn)
	}
	if doc.QShort < 0.02 {
		t.Fatalf("observed p99 = %v, want >= threshold", doc.QShort)
	}
	if doc.AlertsFired != 1 {
		t.Fatalf("alerts fired = %d", doc.AlertsFired)
	}

	// Recovery: good traffic only; once the bad completions age out of
	// the short window the alert clears.
	for i := 0; doc.Alerting && i < 10; i++ {
		for i := 0; i < 50; i++ {
			h.Observe(0.002)
		}
		now = now.Add(45 * time.Millisecond)
		doc = m.Poll(now)
	}
	if doc.Alerting {
		t.Fatalf("alert never cleared: %+v", doc)
	}
	if doc.AlertsFired != 1 {
		t.Fatalf("alerts fired after clear = %d", doc.AlertsFired)
	}

	// The registry counted the one firing and shows it cleared.
	if got := reg.Counter(`monitor_alerts_total{severity="slo"}`).Value(); got != 1 {
		t.Fatalf("monitor_alerts_total{slo} = %d, want 1", got)
	}
	if got := reg.Gauge(`monitor_alert_active{severity="slo"}`).Value(); got != 0 {
		t.Fatalf("monitor_alert_active{slo} = %d after the clear, want 0", got)
	}
}

// TestMonitorPartiallyDeadCluster: dead upstreams degrade the health
// view — per-node unreachable verdicts with error strings — while the
// SLO keeps evaluating over the live nodes. An all-dead cluster
// degrades too; the monitor never errors.
func TestMonitorPartiallyDeadCluster(t *testing.T) {
	s, _, h := monitorNode(t, 0, 4)
	dead := "http://127.0.0.1:1"
	slo, _ := ParseSLO("p99 < 20ms over 80ms/240ms")
	m := NewMonitor(MonitorConfig{
		URLs:    []string{s.URL(), dead},
		SLO:     slo,
		Timeout: 500 * time.Millisecond,
	})

	now := time.Now()
	m.Poll(now)
	for i := 0; i < 50; i++ {
		h.Observe(0.001)
	}
	doc := m.Poll(now.Add(20 * time.Millisecond))
	if doc.Status != "degraded" {
		t.Fatalf("status = %q, want degraded (one upstream dead)", doc.Status)
	}
	if len(doc.Nodes) != 2 {
		t.Fatalf("nodes = %+v", doc.Nodes)
	}
	if doc.Nodes[0].Verdict != "healthy" || doc.Nodes[0].Err != "" {
		t.Fatalf("live node = %+v", doc.Nodes[0])
	}
	if doc.Nodes[1].Verdict != "unreachable" || doc.Nodes[1].Err == "" {
		t.Fatalf("dead node = %+v", doc.Nodes[1])
	}
	// The live node's completions still feed the windows.
	if doc.ObsLong != 50 {
		t.Fatalf("window observations = %v, want 50 (live node only)", doc.ObsLong)
	}
	if doc.Alerting {
		t.Fatalf("healthy live traffic must not alert: %+v", doc)
	}

	// Whole cluster dark: still no error, everything unreachable.
	m2 := NewMonitor(MonitorConfig{URLs: []string{dead}, SLO: slo, Timeout: 300 * time.Millisecond})
	doc = m2.Poll(time.Now())
	if doc.Status != "degraded" || len(doc.Nodes) != 1 || doc.Nodes[0].Verdict != "unreachable" {
		t.Fatalf("all-dead doc = %+v", doc)
	}
}

// TestMonitorVerdicts: load saturation, sendq backup, and abort-rate
// EWMAs each flip a node's verdict.
func TestMonitorVerdicts(t *testing.T) {
	// Four nodes: one hot (load 90 vs mean 24), one with a backed-up
	// sendq, one with an abort storm, one plain healthy.
	sHot, _, _ := monitorNode(t, 0, 90)
	sQ, regQ, _ := monitorNode(t, 1, 2)
	regQ.Gauge(`wire_sendq_depth{node="1"}`).Set(5000)
	sAb, regAb, _ := monitorNode(t, 2, 2)
	aborts := regAb.Counter(`cluster_aborts_total{reason="timeout"}`)
	sOK, _, _ := monitorNode(t, 3, 2)

	slo, _ := ParseSLO("p99 < 20ms over 80ms/240ms")
	m := NewMonitor(MonitorConfig{
		URLs: []string{sHot.URL(), sQ.URL(), sAb.URL(), sOK.URL()},
		SLO:  slo,
	})
	now := time.Now()
	m.Poll(now)
	aborts.Add(1000) // 50 000 per second over the 20 ms poll gap
	doc := m.Poll(now.Add(20 * time.Millisecond))

	want := []string{"saturated", "degraded", "degraded", "healthy"}
	for i, w := range want {
		if doc.Nodes[i].Verdict != w {
			t.Errorf("node %d verdict = %q, want %q (%+v)", i, doc.Nodes[i].Verdict, w, doc.Nodes[i])
		}
	}
	if doc.Nodes[2].AbortEWMA <= DefaultAbortRateMax {
		t.Errorf("abort EWMA = %v, want > %v", doc.Nodes[2].AbortEWMA, DefaultAbortRateMax)
	}
	if doc.Status != "degraded" {
		t.Errorf("status = %q, want degraded", doc.Status)
	}

	// The /health handler serves the same document as JSON.
	srv, err := ServeDebugOpts("127.0.0.1:0", nil, DebugOptions{
		Extra: map[string]http.HandlerFunc{"/health": m.Handler()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/health")
	if code != 200 {
		t.Fatalf("/health = %d", code)
	}
	var got HealthDoc
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/health not JSON: %v\n%s", err, body)
	}
	if got.Status != doc.Status || len(got.Nodes) != 4 || got.SLO != slo.String() {
		t.Fatalf("/health doc = %+v", got)
	}
}

// TestHealthStatusCodes: /health answers 503 while the SLO alert is
// firing or any upstream is unreachable, and 200 otherwise — including
// "degraded", which is already covered by TestMonitorVerdicts. The JSON
// body is the same document either way. Alongside the status codes this
// exercises the alert lifecycle metrics and the OnAlert hook.
func TestHealthStatusCodes(t *testing.T) {
	s, _, h := monitorNode(t, 0, 4)
	slo, err := ParseSLO("p99 < 20ms over 80ms/240ms")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	alerted := make(chan HealthDoc, 4)
	m := NewMonitor(MonitorConfig{
		URLs:    []string{s.URL()},
		SLO:     slo,
		Obs:     reg,
		OnAlert: func(doc HealthDoc) { alerted <- doc },
	})
	srv, err := ServeDebugOpts("127.0.0.1:0", nil, DebugOptions{
		Extra: map[string]http.HandlerFunc{"/health": m.Handler()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Healthy traffic → 200.
	now := time.Now()
	m.Poll(now)
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}
	now = now.Add(30 * time.Millisecond)
	doc := m.Poll(now)
	if doc.Alerting {
		t.Fatalf("healthy traffic alerting: %+v", doc)
	}
	if code, _ := get(t, srv.URL()+"/health"); code != 200 {
		t.Fatalf("healthy /health = %d, want 200", code)
	}
	if got := reg.Gauge(`monitor_alert_active{severity="slo"}`).Value(); got != 0 {
		t.Fatalf("slo active gauge = %d while healthy", got)
	}

	// Latency regression → alert fires → 503, metrics, OnAlert.
	for i := 0; i < 100; i++ {
		h.Observe(0.2)
	}
	now = now.Add(30 * time.Millisecond)
	doc = m.Poll(now)
	if !doc.Alerting {
		t.Fatalf("regression not alerting: %+v", doc)
	}
	code, body := get(t, srv.URL()+"/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("alerting /health = %d, want 503", code)
	}
	var got HealthDoc
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("503 body not the JSON doc: %v\n%s", err, body)
	}
	if !got.Alerting || got.Status != "alerting" {
		t.Fatalf("503 body = %+v", got)
	}
	if n := reg.Counter(`monitor_alerts_total{severity="slo"}`).Value(); n != 1 {
		t.Fatalf("slo alerts total = %d, want 1", n)
	}
	if g := reg.Gauge(`monitor_alert_active{severity="slo"}`).Value(); g != 1 {
		t.Fatalf("slo active gauge = %d, want 1", g)
	}
	select {
	case fired := <-alerted:
		if !fired.Alerting {
			t.Fatalf("OnAlert doc = %+v", fired)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnAlert never ran")
	}

	// Recovery → 200 again, gauge drops, counter stays (it is a total).
	for i := 0; doc.Alerting && i < 10; i++ {
		for i := 0; i < 50; i++ {
			h.Observe(0.002)
		}
		now = now.Add(45 * time.Millisecond)
		doc = m.Poll(now)
	}
	if doc.Alerting {
		t.Fatalf("alert never cleared: %+v", doc)
	}
	if code, _ := get(t, srv.URL()+"/health"); code != 200 {
		t.Fatalf("recovered /health = %d, want 200", code)
	}
	if g := reg.Gauge(`monitor_alert_active{severity="slo"}`).Value(); g != 0 {
		t.Fatalf("slo active gauge after clear = %d", g)
	}
	if n := reg.Counter(`monitor_alerts_total{severity="slo"}`).Value(); n != 1 {
		t.Fatalf("slo alerts total after clear = %d, want 1", n)
	}
	select {
	case <-alerted:
		t.Fatal("OnAlert ran again without a fresh clear→firing transition")
	default:
	}
}

// TestHealthUnreachable503: a dead upstream makes /health answer 503,
// and the unreachable lifecycle metrics track it — also when the whole
// cluster goes dark, which renders its verdicts through the same
// per-node path: the transition into unreachable is counted and the
// gauges of the verdicts it replaced drop.
func TestHealthUnreachable503(t *testing.T) {
	s, _, _ := monitorNode(t, 0, 4)
	dead := "http://127.0.0.1:1"
	slo, _ := ParseSLO("p99 < 20ms over 80ms/240ms")
	reg := NewRegistry()
	m := NewMonitor(MonitorConfig{
		URLs:    []string{s.URL(), dead},
		SLO:     slo,
		Timeout: 500 * time.Millisecond,
		Obs:     reg,
	})
	srv, err := ServeDebugOpts("127.0.0.1:0", nil, DebugOptions{
		Extra: map[string]http.HandlerFunc{"/health": m.Handler()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m.Poll(time.Now())
	code, body := get(t, srv.URL()+"/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/health with dead upstream = %d, want 503", code)
	}
	var got HealthDoc
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("503 body not the JSON doc: %v\n%s", err, body)
	}
	if g := reg.Gauge(`monitor_alert_active{severity="unreachable"}`).Value(); g != 1 {
		t.Fatalf("unreachable active gauge = %d, want 1", g)
	}
	if n := reg.Counter(`monitor_alerts_total{severity="unreachable"}`).Value(); n != 1 {
		t.Fatalf("unreachable alerts total = %d, want 1", n)
	}

	// Whole cluster dark: the aggregate itself errors; still 503. The
	// one node was degraded (a backed-up sendq) before it went dark.
	sq, regQ, _ := monitorNode(t, 1, 2)
	regQ.Gauge(`wire_sendq_depth{node="1"}`).Set(5000)
	reg2 := NewRegistry()
	m2 := NewMonitor(MonitorConfig{
		URLs: []string{sq.URL()}, SLO: slo,
		Timeout: 300 * time.Millisecond, Obs: reg2,
	})
	if doc := m2.Poll(time.Now()); doc.Nodes[0].Verdict != "degraded" {
		t.Fatalf("sendq node = %+v, want degraded", doc.Nodes[0])
	}
	srv2, err := ServeDebugOpts("127.0.0.1:0", nil, DebugOptions{
		Extra: map[string]http.HandlerFunc{"/health": m2.Handler()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	sq.Close()
	doc := m2.Poll(time.Now())
	if doc.Status != "degraded" || len(doc.Nodes) != 1 || doc.Nodes[0].Verdict != "unreachable" || doc.Nodes[0].Err == "" {
		t.Fatalf("dark-cluster doc = %+v", doc)
	}
	if code, _ := get(t, srv2.URL()+"/health"); code != http.StatusServiceUnavailable {
		t.Fatalf("dark-cluster /health = %d, want 503", code)
	}
	for sev, want := range map[string]int64{"unreachable": 1, "degraded": 0, "saturated": 0} {
		if g := reg2.Gauge(fmt.Sprintf("monitor_alert_active{severity=%q}", sev)).Value(); g != want {
			t.Errorf("dark cluster: %s active gauge = %d, want %d", sev, g, want)
		}
	}
	if n := reg2.Counter(`monitor_alerts_total{severity="unreachable"}`).Value(); n != 1 {
		t.Errorf("dark cluster: unreachable alerts total = %d, want 1", n)
	}
}

// TestMonitorStartStop: the background loop polls on its own and shuts
// down cleanly.
func TestMonitorStartStop(t *testing.T) {
	_, reg, h := monitorNode(t, 0, 4)
	// The upstream signals each scrape, so the test waits on polls, not
	// on the clock.
	scraped := make(chan struct{}, 1)
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		reg.WritePrometheus(w)
		select {
		case scraped <- struct{}{}:
		default:
		}
	}))
	defer s.Close()
	slo, _ := ParseSLO("p99 < 20ms over 80ms/240ms")
	m := NewMonitor(MonitorConfig{URLs: []string{s.URL}, SLO: slo, Period: 10 * time.Millisecond})
	for i := 0; i < 10; i++ {
		h.Observe(0.001)
	}
	m.Start()
	m.Start() // idempotent
	// The loop polls one scrape at a time, so a second scrape means the
	// first poll is done.
	for i := 0; i < 2; i++ {
		select {
		case <-scraped:
		case <-time.After(5 * time.Second):
			t.Fatal("loop never polled")
		}
	}
	m.Stop()
	m.Stop() // idempotent
	doc := m.Last()
	if doc.At.IsZero() {
		t.Fatal("loop never polled")
	}
	if doc.Nodes[0].Verdict != "healthy" {
		t.Fatalf("doc = %+v", doc)
	}
}

// TestRingWraparound overfills a ring and checks the survivors are
// exactly the newest rows, oldest first, each with its own stamp.
func TestRingWraparound(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 10; i++ {
		r.push(int64(i), 1)[0] = float64(i)
	}
	if r.len() != 4 {
		t.Fatalf("len = %d, want 4", r.len())
	}
	for i, want := range []float64{6, 7, 8, 9} {
		if at, row := r.row(i); row[0] != want || at != int64(want) {
			t.Fatalf("row %d = %v at %d, want %v at %v", i, row[0], at, want, want)
		}
	}
}

// TestCounterRate: no rate on the first reading or on a clock that did
// not advance; otherwise the per-second increase since the previous
// reading.
func TestCounterRate(t *testing.T) {
	var c counterRate
	const s = int64(time.Second / time.Microsecond)
	for i, step := range []struct {
		v      float64
		atUS   int64
		rate   float64
		wantOK bool
	}{
		{10, 100 * s, 0, false}, // first reading: no baseline
		{30, 102 * s, 10, true}, // +20 over 2 s
		{30, 103 * s, 0, true},  // flat
		{40, 103 * s, 0, false}, // the clock did not advance
		{40, 105 * s, 0, true},  // the stalled reading is the new baseline
	} {
		if rate, ok := c.next(step.v, step.atUS); rate != step.rate || ok != step.wantOK {
			t.Fatalf("reading %d: rate %v ok %v, want %v %v", i, rate, ok, step.rate, step.wantOK)
		}
	}
}

// TestTickLoopReplaceAndHalt: a second start replaces the running loop
// rather than stacking one, however concurrent starts and halts
// interleave, and after the last halt no loop is left ticking.
func TestTickLoopReplaceAndHalt(t *testing.T) {
	ticked := func() (func(time.Time), func(n int), *atomic.Int64) {
		ch := make(chan struct{}, 1)
		var n atomic.Int64
		fn := func(time.Time) {
			n.Add(1)
			select {
			case ch <- struct{}{}:
			default:
			}
		}
		wait := func(k int) {
			t.Helper()
			for ; k > 0; k-- {
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Fatalf("loop stalled with %d ticks to go", k)
				}
			}
		}
		return fn, wait, &n
	}
	fn, wait, n := ticked()
	var l tickLoop
	l.start(time.Millisecond, fn)
	wait(3)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.start(time.Millisecond, fn)
			if i%2 == 0 {
				l.halt()
			}
		}(i)
	}
	wg.Wait()
	l.halt()
	l.halt() // idempotent
	stopped := n.Load()
	// A witness loop on the same period: twenty of its ticks span twenty
	// periods in which a leftover loop would have ticked.
	wfn, wwait, _ := ticked()
	var witness tickLoop
	witness.start(time.Millisecond, wfn)
	wwait(20)
	witness.halt()
	if got := n.Load(); got != stopped {
		t.Fatalf("loop kept ticking after halt: %d → %d", stopped, got)
	}
}
