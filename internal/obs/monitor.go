package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the continuous health monitor: a poller that scrapes the
// cluster's merged view (Aggregate) on an interval, maintains rolling
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

// DefaultSLOBase is the histogram family the monitor watches when
// MonitorConfig.Base is empty: the serve layer's per-node end-to-end
// job sojourn histograms.
const DefaultSLOBase = "serve_sojourn_seconds"

// Per-node verdict thresholds (MonitorConfig overrides; zero → default).
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
	// DefaultSendqMax: a node whose summed sendq depth exceeds this is
	// "degraded" — its transport is backing up.
	DefaultSendqMax = 1024.0
	// abortEWMAAlpha smooths the per-poll abort rate.
	abortEWMAAlpha = 0.3
)

// MonitorConfig configures a Monitor. URLs and SLO are required; every
// other field has a usable zero value.
type MonitorConfig struct {
	URLs []string // upstream debug endpoints (same as Aggregate)
	SLO  SLO

	Base    string        // sojourn histogram family (default DefaultSLOBase)
	Period  time.Duration // poll interval for Start (default 1s)
	Timeout time.Duration // per-scrape timeout (default DefaultScrapeTimeout)

	// Obs, when non-nil, exports the alert lifecycle as metrics:
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

	// Verdict thresholds; zero means the Default* constant.
	SaturateFactor float64
	SaturateMin    float64
	AbortRateMax   float64
	SendqMax       float64
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

// histSnap is one timestamped snapshot of the watched histogram family,
// summed across every node label: cumulative bucket counts by le, plus
// the _sum/_count totals. Deltas between two snapshots are themselves a
// valid histogram (cumulative counters only grow), which is what the
// rolling windows are computed from.
type histSnap struct {
	at      time.Time
	count   float64
	sum     float64
	buckets []bucketCum // ascending le, cumulative counts
}

type bucketCum struct{ le, n float64 }

// nodeTrack is the monitor's per-URL memory between polls: the previous
// abort-counter total (for the rate) and its EWMA, plus the last
// verdict so transitions can be counted.
type nodeTrack struct {
	prevAborts float64
	prevAt     time.Time
	havePrev   bool
	ewma       float64
	verdict    string
}

// Monitor polls the cluster's merged view and evaluates the SLO. Create
// with NewMonitor; drive it with Start/Stop (continuous) or Poll
// (one-shot, what experiments and tests use for determinism).
type Monitor struct {
	cfg MonitorConfig

	mu        sync.Mutex
	snaps     []histSnap
	first     histSnap // first-ever snapshot (survives ring trimming)
	haveFirst bool
	tracks    map[string]*nodeTrack
	last      HealthDoc
	fired     int64

	// Alert lifecycle metrics (nil-safe; attached when cfg.Obs is set).
	alertsTotal map[string]*Counter
	alertActive map[string]*Gauge

	stop chan struct{}
	done chan struct{}
}

// NewMonitor returns a Monitor over cfg. It does not scrape until
// Start or Poll.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Base == "" {
		cfg.Base = DefaultSLOBase
	}
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	if cfg.SLO.Burn <= 0 {
		cfg.SLO.Burn = DefaultBurn
	}
	if cfg.SaturateFactor <= 0 {
		cfg.SaturateFactor = DefaultSaturateFactor
	}
	if cfg.SaturateMin <= 0 {
		cfg.SaturateMin = DefaultSaturateMin
	}
	if cfg.AbortRateMax <= 0 {
		cfg.AbortRateMax = DefaultAbortRateMax
	}
	if cfg.SendqMax <= 0 {
		cfg.SendqMax = DefaultSendqMax
	}
	m := &Monitor{
		cfg:         cfg,
		tracks:      make(map[string]*nodeTrack),
		alertsTotal: make(map[string]*Counter, len(monSeverities)),
		alertActive: make(map[string]*Gauge, len(monSeverities)),
	}
	for _, sev := range monSeverities {
		c, g := &Counter{}, &Gauge{}
		m.alertsTotal[sev], m.alertActive[sev] = c, g
		cfg.Obs.Attach(fmt.Sprintf("monitor_alerts_total{severity=%q}", sev), c)
		cfg.Obs.Attach(fmt.Sprintf("monitor_alert_active{severity=%q}", sev), g)
	}
	return m
}

// Start launches the polling loop. Stop shuts it down and waits.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	m.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(m.cfg.Period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				m.Poll()
			}
		}
	}()
}

// Stop halts the polling loop (no-op if not started).
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Last returns the most recent health document (zero At if none yet).
func (m *Monitor) Last() HealthDoc {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// Poll scrapes once, folds the result into the rolling windows, and
// returns the fresh health document. Safe to call concurrently with a
// running loop; also the deterministic entry point for tests and
// experiments that drive the monitor by hand.
func (m *Monitor) Poll() HealthDoc {
	v, err := AggregateOpts(m.cfg.URLs, AggOptions{Timeout: m.cfg.Timeout, MetricsOnly: true})
	m.mu.Lock()
	defer m.mu.Unlock()
	doc := HealthDoc{SLO: m.cfg.SLO.String(), Base: m.cfg.Base}
	if err != nil {
		// Whole cluster dark: degrade, keep the rolling state.
		doc.At = time.Now()
		doc.Status = "degraded"
		for _, url := range m.cfg.URLs {
			doc.Nodes = append(doc.Nodes, NodeHealth{URL: url, Verdict: "unreachable", Err: err.Error()})
		}
		doc.Alerting = m.last.Alerting
		doc.AlertsFired = m.fired
		m.alertActive["unreachable"].Set(int64(len(m.cfg.URLs)))
		m.last = doc
		return doc
	}
	doc.At = v.At

	// Fold this scrape's histogram state into the snapshot ring.
	snap := extractHistSnap(v, m.cfg.Base)
	snap.at = v.At
	if !m.haveFirst {
		m.first, m.haveFirst = snap, true
	}
	m.snaps = append(m.snaps, snap)
	m.trimSnaps(v.At)

	// Multi-window burn rates against the objective.
	cur := m.snaps[len(m.snaps)-1]
	sOld, sOK := m.windowStart(cur.at, m.cfg.SLO.Short)
	lOld, lOK := m.windowStart(cur.at, m.cfg.SLO.Long)
	budget := 1 - m.cfg.SLO.Quantile
	if sOK {
		doc.BadShort = deltaBadFrac(cur, sOld, m.cfg.SLO.Threshold)
		doc.BurnShort = doc.BadShort / budget
		doc.QShort = deltaQuantile(cur, sOld, m.cfg.SLO.Quantile)
	}
	if lOK {
		doc.BadLong = deltaBadFrac(cur, lOld, m.cfg.SLO.Threshold)
		doc.BurnLong = doc.BadLong / budget
		doc.QLong = deltaQuantile(cur, lOld, m.cfg.SLO.Quantile)
		doc.ObsLong = cur.count - lOld.count
	}
	if m.haveFirst {
		doc.ObsTotal = cur.count - m.first.count
		doc.BadTotal = deltaBadFrac(cur, m.first, m.cfg.SLO.Threshold)
		doc.QTotal = deltaQuantile(cur, m.first, m.cfg.SLO.Quantile)
	}

	wasAlerting := m.last.Alerting
	doc.Alerting = sOK && lOK &&
		doc.BurnShort >= m.cfg.SLO.Burn && doc.BurnLong >= m.cfg.SLO.Burn
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
			nh.AbortEWMA = tr.ewma
			degraded = true
		} else {
			nh.Load = maxMetric(n.Metrics, LoadGaugeBase)
			nh.Sendq = sumMetric(n.Metrics, "wire_sendq_depth")
			aborts := sumMetric(n.Metrics, "cluster_aborts_total")
			if tr.havePrev {
				if dt := v.At.Sub(tr.prevAt).Seconds(); dt > 0 {
					rate := (aborts - tr.prevAborts) / dt
					if rate < 0 {
						rate = 0 // counter reset (node restart)
					}
					tr.ewma = abortEWMAAlpha*rate + (1-abortEWMAAlpha)*tr.ewma
				}
			}
			tr.prevAborts, tr.prevAt, tr.havePrev = aborts, v.At, true
			nh.AbortEWMA = tr.ewma
			switch {
			case nh.Load >= m.cfg.SaturateMin && meanLoad > 0 && nh.Load >= m.cfg.SaturateFactor*meanLoad:
				nh.Verdict = "saturated"
			case nh.AbortEWMA > m.cfg.AbortRateMax || nh.Sendq > m.cfg.SendqMax:
				nh.Verdict = "degraded"
				degraded = true
			default:
				nh.Verdict = "healthy"
			}
		}
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
			doc = m.Poll()
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

// trimSnaps drops snapshots that fell out of the long window (plus one
// period of slack so the window-start lookup always has a bracket).
func (m *Monitor) trimSnaps(now time.Time) {
	horizon := now.Add(-m.cfg.SLO.Long - 2*m.cfg.Period)
	i := 0
	for i < len(m.snaps)-1 && m.snaps[i+1].at.Before(horizon) {
		i++
	}
	m.snaps = m.snaps[i:]
}

// windowStart returns the snapshot to delta against for a window ending
// at `end`: the newest snapshot at or before end−window, or the oldest
// retained snapshot while the ring is still filling. ok is false until
// at least two snapshots exist.
func (m *Monitor) windowStart(end time.Time, window time.Duration) (histSnap, bool) {
	if len(m.snaps) < 2 {
		return histSnap{}, false
	}
	cut := end.Add(-window)
	for i := len(m.snaps) - 2; i >= 0; i-- {
		if !m.snaps[i].at.After(cut) {
			return m.snaps[i], true
		}
	}
	return m.snaps[0], true
}

// extractHistSnap sums one histogram family's cumulative exposition
// lines across all node labels in the merged view.
func extractHistSnap(v *AggView, base string) histSnap {
	var s histSnap
	byLE := make(map[float64]float64)
	for name, val := range v.Metrics {
		b := baseName(name)
		switch b {
		case base + "_count":
			s.count += val
		case base + "_sum":
			s.sum += val
		case base + "_bucket":
			for _, part := range splitLabels(labelPart(name)) {
				k, raw, ok := strings.Cut(part, "=")
				if !ok || k != "le" {
					continue
				}
				le, err := parseLE(strings.Trim(raw, `"`))
				if err == nil {
					byLE[le] += val
				}
			}
		}
	}
	s.buckets = make([]bucketCum, 0, len(byLE))
	for le, n := range byLE {
		s.buckets = append(s.buckets, bucketCum{le: le, n: n})
	}
	sort.Slice(s.buckets, func(a, b int) bool { return s.buckets[a].le < s.buckets[b].le })
	return s
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// cumAt linearly interpolates a snapshot's cumulative count at value x.
// Buckets are (lower, le] ranges; mass inside the bucket containing x
// is spread uniformly, the standard Prometheus histogram_quantile
// assumption in reverse.
func cumAt(s histSnap, x float64) float64 {
	prevLE, prevN := 0.0, 0.0
	for _, b := range s.buckets {
		if x <= b.le {
			width := b.le - prevLE
			if width <= 0 || math.IsInf(b.le, 1) { // degenerate or +Inf bucket
				return prevN
			}
			return prevN + (b.n-prevN)*(x-prevLE)/width
		}
		prevLE, prevN = b.le, b.n
	}
	return s.count
}

// deltaBadFrac is the fraction of completions between old and cur that
// exceeded the threshold.
func deltaBadFrac(cur, old histSnap, threshold float64) float64 {
	total := cur.count - old.count
	if total <= 0 {
		return 0
	}
	good := cumAt(cur, threshold) - cumAt(old, threshold)
	bad := total - good
	if bad < 0 {
		bad = 0
	}
	return bad / total
}

// deltaQuantile inverts the delta histogram between old and cur at q
// (0 when the window is empty).
func deltaQuantile(cur, old histSnap, q float64) float64 {
	total := cur.count - old.count
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLE, prevD := 0.0, 0.0
	for i := range cur.buckets {
		d := cur.buckets[i].n
		// Match the same le in old (bucket sets are identical in
		// practice; missing means zero).
		for _, ob := range old.buckets {
			if ob.le == cur.buckets[i].le {
				d -= ob.n
				break
			}
		}
		if d >= rank {
			le := cur.buckets[i].le
			if math.IsInf(le, 1) { // +Inf bucket: clamp to the last finite bound
				return prevLE
			}
			if d == prevD {
				return le
			}
			return prevLE + (le-prevLE)*(rank-prevD)/(d-prevD)
		}
		if !math.IsInf(cur.buckets[i].le, 1) {
			prevLE = cur.buckets[i].le
		}
		prevD = d
	}
	return prevLE
}

// maxMetric returns the largest value among a node's metric lines with
// the given base name (0 if none).
func maxMetric(metrics map[string]float64, base string) float64 {
	best := 0.0
	for name, val := range metrics {
		if baseName(name) == base && val > best {
			best = val
		}
	}
	return best
}

// sumMetric sums a node's metric lines with the given base name.
func sumMetric(metrics map[string]float64, base string) float64 {
	sum := 0.0
	for name, val := range metrics {
		if baseName(name) == base {
			sum += val
		}
	}
	return sum
}
