package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the continuous health monitor: a poller that reads the
// cluster's metrics on an interval — the merged view of its nodes' debug
// endpoints (Aggregate), or a registry in process — maintains rolling
// windows over the cumulative sojourn histograms, and evaluates a
// latency SLO as multi-window burn rates — the Google-SRE-style
// alerting rule where an alert fires only when the error budget is
// being consumed faster than `Burn`× the sustainable rate over BOTH a
// short window (is it still happening?) and a long window (is it
// material?). Alongside the SLO it renders per-node health verdicts
// from the load gauges, abort-rate EWMAs and sendq depth, and serves
// the whole thing as the /health JSON endpoint. Dead upstreams degrade
// the view (verdict "unreachable"); the monitor itself never errors on
// them.

// SLO is a latency objective: "quantile of the sojourn distribution
// stays under Threshold", evaluated over Short/Long rolling windows.
//
// The error budget is 1−Quantile (p99 → 1% of completions may exceed
// the threshold). The burn rate of a window is
//
//	badFraction / (1 − Quantile)
//
// i.e. how many times faster than "just barely meeting the SLO" the
// budget is being spent. Burn is the alerting threshold on that rate.
type SLO struct {
	Quantile  float64       // e.g. 0.99
	Threshold float64       // seconds, e.g. 0.020
	Short     time.Duration // fast window: is it still happening?
	Long      time.Duration // slow window: is it material?
	Burn      float64       // alert when both windows burn ≥ this (default 2)
}

// DefaultBurn is the alerting burn-rate threshold when an SLO string
// does not name one: budget consumed twice as fast as sustainable.
const DefaultBurn = 2.0

// ParseSLO parses an objective like
//
//	p99 < 20ms over 30s/5m
//	p99<20ms over 30s/5m burn 2
//
// Spaces are optional everywhere. The quantile is a percentile (p99,
// p99.9), the threshold a Go duration, the windows short/long Go
// durations, and the optional trailing burn value defaults to
// DefaultBurn.
func ParseSLO(s string) (SLO, error) {
	raw := s
	s = strings.ReplaceAll(strings.ToLower(s), " ", "")
	bad := func(why string) (SLO, error) {
		return SLO{}, fmt.Errorf("obs: bad SLO %q: %s (want e.g. \"p99<20ms over 30s/5m\")", raw, why)
	}
	if !strings.HasPrefix(s, "p") {
		return bad("must start with a percentile like p99")
	}
	lt := strings.IndexByte(s, '<')
	if lt < 0 {
		return bad("missing '<'")
	}
	pct, err := strconv.ParseFloat(s[1:lt], 64)
	if err != nil || pct <= 0 || pct >= 100 {
		return bad("percentile must be in (0,100)")
	}
	rest := s[lt+1:]
	ov := strings.Index(rest, "over")
	if ov <= 0 {
		return bad("missing 'over <short>/<long>'")
	}
	thr, err := time.ParseDuration(rest[:ov])
	if err != nil || thr <= 0 {
		return bad("threshold must be a positive duration")
	}
	rest = rest[ov+len("over"):]
	burn := DefaultBurn
	if bi := strings.Index(rest, "burn"); bi >= 0 {
		bs := strings.TrimPrefix(rest[bi+len("burn"):], "=")
		burn, err = strconv.ParseFloat(bs, 64)
		if err != nil || burn <= 0 {
			return bad("burn must be a positive number")
		}
		rest = rest[:bi]
	}
	shortS, longS, ok := strings.Cut(rest, "/")
	if !ok {
		return bad("windows must be <short>/<long>")
	}
	short, err := time.ParseDuration(shortS)
	if err != nil || short <= 0 {
		return bad("short window must be a positive duration")
	}
	long, err := time.ParseDuration(longS)
	if err != nil || long < short {
		return bad("long window must be a duration >= the short window")
	}
	return SLO{
		Quantile:  pct / 100,
		Threshold: thr.Seconds(),
		Short:     short,
		Long:      long,
		Burn:      burn,
	}, nil
}

// String renders the SLO back in its parseable form.
func (s SLO) String() string {
	return fmt.Sprintf("p%g < %s over %s/%s burn %g",
		s.Quantile*100,
		time.Duration(s.Threshold*float64(time.Second)),
		s.Short, s.Long, s.Burn)
}

// DefaultSLOBase is the histogram family the monitor watches: the
// serve layer's per-node end-to-end job sojourn histograms, every one
// bucketed by SojournBuckets.
const DefaultSLOBase = "serve_sojourn_seconds"

// minMonitorRows is the fewest window snapshots a Monitor's ring holds.
const minMonitorRows = 1024

// Per-node verdict thresholds.
const (
	// DefaultSaturateFactor: a node whose load gauge exceeds this
	// multiple of the cluster mean load is "saturated" …
	DefaultSaturateFactor = 3.0
	// … provided its load also clears this absolute floor (a 3×
	// imbalance over a near-empty cluster is noise, not saturation).
	DefaultSaturateMin = 16.0
	// DefaultAbortRateMax: a node whose abort-rate EWMA (aborts/sec
	// across all reasons) exceeds this is "degraded".
	DefaultAbortRateMax = 5.0
	// DefaultSendqMax: a node whose summed sendq depth (TCP frames held
	// while a link redials) exceeds this is "degraded" — its transport
	// is backing up.
	DefaultSendqMax = 1024.0
	// abortEWMAAlpha smooths the per-poll abort rate.
	abortEWMAAlpha = 0.3
)

// MonitorConfig configures a Monitor. SLO is required; every other
// field has a usable zero value.
type MonitorConfig struct {
	// URLs are the upstream debug endpoints the monitor scrapes (same as
	// Aggregate). With none, the monitor reads Obs in process: no HTTP,
	// no exposition text, one upstream.
	URLs []string
	SLO  SLO

	Period  time.Duration // poll interval for Start (default 1s)
	Timeout time.Duration // per-scrape timeout (default DefaultScrapeTimeout)

	// Obs, when non-nil, exports the alert lifecycle as metrics (and is
	// the monitor's source when URLs is empty):
	// monitor_alerts_total{severity=...} counts transitions into each
	// alert state (so an aggregator can count firings across restarts)
	// and monitor_alert_active{severity=...} gauges which are in force
	// right now. Severities: slo (the burn-rate alert), and the per-node
	// verdicts degraded, saturated, unreachable.
	Obs *Registry

	// OnAlert, when non-nil, runs (in its own goroutine) every time the
	// SLO burn-rate alert transitions from clear to firing, with the
	// health document that fired it. cmd/lbnode uses it to trigger a
	// flight-recorder snapshot, so every alert leaves a replayable
	// incident artifact behind.
	OnAlert func(HealthDoc)
}

// monSeverities are the alert-lifecycle metric labels.
var monSeverities = []string{"slo", "degraded", "saturated", "unreachable"}

// NodeHealth is one upstream's slice of the /health document.
type NodeHealth struct {
	URL       string  `json:"url"`
	OK        bool    `json:"ok"`
	Verdict   string  `json:"verdict"` // healthy|degraded|saturated|unreachable
	Load      float64 `json:"load"`    // max per-node load gauge in this scrape
	Sendq     float64 `json:"sendq"`   // summed sendq depth
	AbortEWMA float64 `json:"abort_rate_ewma"`
	ScrapeMS  float64 `json:"scrape_ms"`
	Err       string  `json:"err,omitempty"`
}

// HealthDoc is the /health JSON document: the SLO burn-rate verdict
// plus per-node health.
type HealthDoc struct {
	At     time.Time `json:"at"`
	SLO    string    `json:"slo"`
	Base   string    `json:"base"`
	Status string    `json:"status"` // ok|degraded|alerting|no_data

	Alerting    bool    `json:"alerting"`
	BurnShort   float64 `json:"burn_short"`
	BurnLong    float64 `json:"burn_long"`
	BadShort    float64 `json:"bad_frac_short"`
	BadLong     float64 `json:"bad_frac_long"`
	QShort      float64 `json:"q_short_s"` // observed SLO quantile over the short window
	QLong       float64 `json:"q_long_s"`
	ObsLong     float64 `json:"window_obs"` // completions inside the long window
	AlertsFired int64   `json:"alerts_fired"`

	// Since-start compliance: the same statistics deltaed against the
	// monitor's first snapshot — how much of the overall error budget
	// the run has spent so far, the thing the burn-rate alert is meant
	// to fire ahead of.
	QTotal   float64 `json:"q_total_s"`
	BadTotal float64 `json:"bad_frac_total"`
	ObsTotal float64 `json:"obs_total"`

	Nodes []NodeHealth `json:"nodes"`
}

// nodeTrack is the monitor's per-URL memory between polls: the abort
// counter's rate and its EWMA, plus the last verdict so transitions can
// be counted.
type nodeTrack struct {
	aborts  counterRate
	ewma    float64
	verdict string
}

// Monitor polls the cluster's metrics and evaluates the SLO. Create
// with NewMonitor; drive it with Start/Stop (continuous, on the wall
// clock) or Poll (one-shot, on the caller's clock).
//
// The rolling windows are rows of a ring, one per successful poll: the
// SLO family's _count summed across nodes, then its summed cumulative
// bucket counts at each of SojournBuckets and +Inf. Cumulative counters
// only grow, so the difference of two rows is itself a histogram — the
// window between them.
type Monitor struct {
	cfg MonitorConfig

	mu     sync.Mutex
	bounds []float64      // the family's finite bucket bounds
	les    map[string]int // exposition le label → bucket index
	rows   ring
	first  []float64 // the first row, kept past ring overwrites for the since-start figures
	tracks map[string]*nodeTrack
	last   HealthDoc
	fired  int64

	// Alert lifecycle metrics (nil-safe; attached when cfg.Obs is set).
	alertsTotal map[string]*Counter
	alertActive map[string]*Gauge

	loop tickLoop
}

// NewMonitor returns a Monitor over cfg. It does not scrape until
// Start or Poll.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	if cfg.SLO.Burn <= 0 {
		cfg.SLO.Burn = DefaultBurn
	}
	// The ring must reach back past the long window at whatever rate
	// Poll is called, which may be faster than Period (experiments poll
	// by hand), so it never holds fewer than minMonitorRows rows.
	capacity := max(minMonitorRows, int((cfg.SLO.Long+2*cfg.Period)/cfg.Period)+2)
	m := &Monitor{
		cfg:         cfg,
		bounds:      SojournBuckets,
		les:         map[string]int{"+Inf": len(SojournBuckets)},
		rows:        newRing(capacity),
		tracks:      make(map[string]*nodeTrack),
		alertsTotal: make(map[string]*Counter, len(monSeverities)),
		alertActive: make(map[string]*Gauge, len(monSeverities)),
	}
	for i, le := range SojournBuckets {
		m.les[formatFloat(le)] = i
	}
	for _, sev := range monSeverities {
		c, g := &Counter{}, &Gauge{}
		m.alertsTotal[sev], m.alertActive[sev] = c, g
		cfg.Obs.Attach(fmt.Sprintf("monitor_alerts_total{severity=%q}", sev), c)
		cfg.Obs.Attach(fmt.Sprintf("monitor_alert_active{severity=%q}", sev), g)
	}
	return m
}

// Start launches the polling loop, restarting it if it already runs.
// Stop shuts it down and waits.
func (m *Monitor) Start() { m.loop.start(m.cfg.Period, func(time.Time) { m.Poll(time.Now()) }) }

// Stop halts the polling loop (no-op if not started).
func (m *Monitor) Stop() { m.loop.halt() }

// Last returns the most recent health document (zero At if none yet).
func (m *Monitor) Last() HealthDoc {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// Poll reads the source once, stamps the reading now, folds it into the
// rolling windows, and returns the fresh health document. Safe to call
// concurrently with a running loop. The windows reach back from now, so
// a caller that drives the monitor by hand on a clock of its own — a
// test stepping time without sleeping, an experiment on virtual time —
// gets windows on that clock.
func (m *Monitor) Poll(now time.Time) HealthDoc {
	v, hists, err := m.read()
	m.mu.Lock()
	defer m.mu.Unlock()
	doc := HealthDoc{At: now, SLO: m.cfg.SLO.String(), Base: DefaultSLOBase}
	wasAlerting := m.last.Alerting
	sOK, lOK := false, false
	if err != nil {
		// Whole cluster dark: keep the rolling state and the alert as
		// it stood; the per-node verdicts below say why.
		doc.Alerting = wasAlerting
	} else {
		cur := m.pushRow(v, hists, now)
		if m.first == nil {
			m.first = append([]float64(nil), cur...)
		}
		// Multi-window burn rates against the objective.
		budget := 1 - m.cfg.SLO.Quantile
		var sOld, lOld []float64
		sOld, sOK = m.windowRow(now, m.cfg.SLO.Short)
		lOld, lOK = m.windowRow(now, m.cfg.SLO.Long)
		if sOK {
			_, doc.BadShort, doc.QShort = m.window(cur, sOld)
			doc.BurnShort = doc.BadShort / budget
		}
		if lOK {
			doc.ObsLong, doc.BadLong, doc.QLong = m.window(cur, lOld)
			doc.BurnLong = doc.BadLong / budget
		}
		doc.ObsTotal, doc.BadTotal, doc.QTotal = m.window(cur, m.first)
		doc.Alerting = sOK && lOK &&
			doc.BurnShort >= m.cfg.SLO.Burn && doc.BurnLong >= m.cfg.SLO.Burn
	}
	if doc.Alerting && !wasAlerting {
		m.fired++
		m.alertsTotal["slo"].Inc()
	}
	doc.AlertsFired = m.fired

	// Per-node verdicts.
	_, meanLoad, _, _ := v.Dist(LoadGaugeBase)
	degraded := false
	for i := range v.Nodes {
		n := &v.Nodes[i]
		nh := NodeHealth{
			URL:      n.URL,
			OK:       n.Err == nil,
			ScrapeMS: float64(n.Latency) / float64(time.Millisecond),
		}
		tr := m.tracks[n.URL]
		if tr == nil {
			tr = &nodeTrack{}
			m.tracks[n.URL] = tr
		}
		if n.Err != nil {
			nh.Err = n.Err.Error()
			nh.Verdict = "unreachable"
			degraded = true
		} else {
			_, nh.Load = nodeMetric(n.Metrics, LoadGaugeBase)
			nh.Sendq, _ = nodeMetric(n.Metrics, "wire_sendq_depth")
			aborts, _ := nodeMetric(n.Metrics, "cluster_aborts_total")
			if rate, ok := tr.aborts.next(aborts, now.UnixMicro()); ok {
				tr.ewma = abortEWMAAlpha*max(rate, 0) + (1-abortEWMAAlpha)*tr.ewma // a negative rate is a node restart
			}
			switch {
			case nh.Load >= DefaultSaturateMin && meanLoad > 0 && nh.Load >= DefaultSaturateFactor*meanLoad:
				nh.Verdict = "saturated"
			case tr.ewma > DefaultAbortRateMax || nh.Sendq > DefaultSendqMax:
				nh.Verdict = "degraded"
				degraded = true
			default:
				nh.Verdict = "healthy"
			}
		}
		nh.AbortEWMA = tr.ewma
		if tr.verdict != nh.Verdict {
			if c := m.alertsTotal[nh.Verdict]; c != nil { // degraded|saturated|unreachable
				c.Inc()
			}
			tr.verdict = nh.Verdict
		}
		doc.Nodes = append(doc.Nodes, nh)
	}

	// Alert-state gauges reflect this poll.
	active := map[string]int64{"slo": 0}
	if doc.Alerting {
		active["slo"] = 1
	}
	for _, nh := range doc.Nodes {
		active[nh.Verdict]++
	}
	for _, sev := range monSeverities {
		m.alertActive[sev].Set(active[sev])
	}

	switch {
	case doc.Alerting:
		doc.Status = "alerting"
	case degraded:
		doc.Status = "degraded"
	case !sOK || !lOK:
		doc.Status = "no_data"
	default:
		doc.Status = "ok"
	}
	m.last = doc
	if doc.Alerting && !wasAlerting && m.cfg.OnAlert != nil {
		// Own goroutine: Poll holds m.mu and the hook may block (it
		// typically triggers a flight-recorder snapshot to disk).
		go m.cfg.OnAlert(doc)
	}
	return doc
}

// Handler serves the latest health document as JSON — the /health
// endpoint. If the monitor has never polled (no Start loop, no manual
// Poll), the first request triggers one synchronously.
//
// The status code is the machine-readable verdict for probes that never
// parse the body: 503 while the SLO burn-rate alert is firing or any
// node is unreachable, 200 otherwise (including "degraded" — a degraded
// cluster is still serving). The JSON document is identical either way.
func (m *Monitor) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		doc := m.Last()
		if doc.At.IsZero() {
			doc = m.Poll(time.Now())
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if unhealthy(doc) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	}
}

// unhealthy decides the /health status code: alerting, or any upstream
// unreachable, means a probe should see 503.
func unhealthy(doc HealthDoc) bool {
	if doc.Alerting {
		return true
	}
	for _, n := range doc.Nodes {
		if n.Verdict == "unreachable" {
			return true
		}
	}
	return false
}

// read polls the monitor's source: the HTTP scrape of URLs, or with
// none the Obs registry in process — its counters and gauges as one
// upstream's metric lines, and its histograms as they are, for pushRow
// to read without the exposition text.
func (m *Monitor) read() (*AggView, map[string]*Histogram, error) {
	if len(m.cfg.URLs) > 0 {
		v, err := AggregateOpts(m.cfg.URLs, AggOptions{Timeout: m.cfg.Timeout})
		return v, nil, err
	}
	v, hists := &AggView{Metrics: make(map[string]float64)}, make(map[string]*Histogram)
	if reg := m.cfg.Obs; reg != nil {
		_, ms := reg.snapshot()
		for name, mt := range ms {
			switch x := mt.(type) {
			case *Counter:
				v.Metrics[name] = float64(x.Value())
			case *Gauge:
				v.Metrics[name] = float64(x.Value())
			case *Histogram:
				hists[name] = x
			}
		}
	}
	v.Nodes = []NodeScrape{{URL: "in-process", Metrics: v.Metrics}}
	return v, hists, nil
}

// pushRow sums the SLO family's _count and cumulative _bucket lines
// across every node label of the merged view, and its in-process
// histograms that have the family's buckets, into a new ring row. A row
// taken before any node exported the family is all zeros.
func (m *Monitor) pushRow(v *AggView, hists map[string]*Histogram, now time.Time) []float64 {
	row := m.rows.push(now.UnixNano(), len(m.bounds)+2)
	clear(row)
	for name, h := range hists {
		if baseName(name) != DefaultSLOBase {
			continue
		}
		if bounds, counts := h.Buckets(); slices.Equal(bounds, m.bounds) {
			var cum float64
			for i, c := range counts {
				cum += float64(c)
				row[1+i] += cum
			}
			row[0] += cum // _count is the +Inf bucket, as exported
		}
	}
	for name, val := range v.Metrics {
		switch baseName(name) {
		case DefaultSLOBase + "_count":
			row[0] += val
		case DefaultSLOBase + "_bucket":
			for _, part := range splitLabels(labelPart(name)) {
				if k, le, _ := strings.Cut(part, "="); k == "le" {
					if i, ok := m.les[strings.Trim(le, `"`)]; ok {
						row[1+i] += val
					}
				}
			}
		}
	}
	return row
}

// windowRow returns the row a window of the given length ending now
// deltas against (see ring.lookback); ok is false until two rows exist.
func (m *Monitor) windowRow(now time.Time, window time.Duration) ([]float64, bool) {
	i, ok := m.rows.lookback(now.Add(-window).UnixNano())
	if !ok {
		return nil, false
	}
	_, row := m.rows.row(i)
	return row, true
}

// window deltas row cur against the older row old: the completions
// between them, the fraction of those over the SLO threshold, and the
// SLO quantile of their distribution (both 0 for an empty window).
func (m *Monitor) window(cur, old []float64) (n, bad, q float64) {
	n = cur[0] - old[0]
	if n <= 0 {
		return n, 0, 0
	}
	cc, oc := cur[1:], old[1:]
	bad = n - (cumAt(m.bounds, cc, m.cfg.SLO.Threshold) - cumAt(m.bounds, oc, m.cfg.SLO.Threshold))
	if bad < 0 {
		bad = 0
	}
	d := make([]float64, len(cc))
	for i := range d {
		d[i] = cc[i] - oc[i]
	}
	return n, bad / n, bucketQuantile(m.bounds, d, n, m.cfg.SLO.Quantile)
}

// nodeMetric sums a node's metric lines with the given base name and
// finds the largest of them (0 if none).
func nodeMetric(metrics map[string]float64, base string) (sum, largest float64) {
	for name, val := range metrics {
		if baseName(name) == base {
			sum += val
			if val > largest {
				largest = val
			}
		}
	}
	return sum, largest
}

// ring is a fixed-capacity buffer of timestamped rows, the oldest
// overwritten first: the Monitor's window snapshots.
type ring struct {
	at   []int64 // unix nanoseconds, parallel to rows
	rows [][]float64
	next int
	full bool
}

func newRing(capacity int) ring {
	return ring{at: make([]int64, capacity), rows: make([][]float64, capacity)}
}

// push appends a row of width values stamped atNS and returns it for
// the caller to fill; it reuses the storage of the row it overwrites.
func (r *ring) push(atNS int64, width int) []float64 {
	row := r.rows[r.next]
	if cap(row) < width {
		row = make([]float64, width)
	}
	row = row[:width]
	r.at[r.next], r.rows[r.next] = atNS, row
	if r.next++; r.next == len(r.rows) {
		r.next, r.full = 0, true
	}
	return row
}

func (r *ring) len() int {
	if r.full {
		return len(r.rows)
	}
	return r.next
}

// row returns the i-th oldest row and its stamp.
func (r *ring) row(i int) (atNS int64, row []float64) {
	if r.full {
		i = (r.next + i) % len(r.rows)
	}
	return r.at[i], r.rows[i]
}

// lookback returns the index of the row a window ending at the newest
// row deltas against: the newest older row stamped at or before cutNS,
// or the oldest row while none is that old. ok is false until the ring
// holds two rows.
func (r *ring) lookback(cutNS int64) (i int, ok bool) {
	n := r.len()
	if n < 2 {
		return 0, false
	}
	for i = n - 2; i >= 0; i-- {
		if at, _ := r.row(i); at <= cutNS {
			return i, true
		}
	}
	return 0, true
}

// counterRate turns successive readings of a cumulative counter into
// per-second rates: the Monitor's per-node abort rate.
type counterRate struct {
	prev   float64
	prevUS int64 // unix microseconds of the previous reading; 0 = none
}

// next records v read at nowUS and returns its per-second increase
// since the previous reading; ok is false for the first reading or a
// clock that did not advance.
func (c *counterRate) next(v float64, nowUS int64) (rate float64, ok bool) {
	if c.prevUS != 0 && nowUS > c.prevUS {
		rate, ok = (v-c.prev)/(float64(nowUS-c.prevUS)/1e6), true
	}
	c.prev, c.prevUS = v, nowUS
	return rate, ok
}

// tickLoop calls a function on a background ticker until halted: the
// loop behind Monitor.Start.
type tickLoop struct {
	mu   sync.Mutex
	stop func() // ends the running loop and waits for it; nil when none runs
}

// start calls fn with every tick's time, once per period, replacing
// (and waiting out) any loop already running.
func (l *tickLoop) start(period time.Duration, fn func(time.Time)) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case t := <-tick.C:
				fn(t)
			case <-stop:
				return
			}
		}
	}()
	l.swap(func() { close(stop); <-done })
}

// halt stops the loop (a no-op when none runs) and waits for it to exit.
func (l *tickLoop) halt() { l.swap(nil) }

// swap installs next as the running loop's stopper and stops the one it
// replaces, outside the lock: each loop is stopped exactly once however
// start and halt interleave.
func (l *tickLoop) swap(next func()) {
	l.mu.Lock()
	prev := l.stop
	l.stop = next
	l.mu.Unlock()
	if prev != nil {
		prev()
	}
}
