package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the multi-node side of the observability layer: an
// aggregator that scrapes every node's /metrics, merges the per-process
// views into one cluster-wide view — summed counters and histograms,
// the load distribution and global variation density over the per-node
// load gauges — and can serve the merged view on its own debug endpoint
// (ServeAggregator). An operation's cross-node timeline is not a metric:
// it is read from the nodes' flight recordings (internal/flight), and so
// is the variation density's trajectory over a run (flight.Audit).

// DefaultScrapeTimeout bounds one upstream HTTP request when AggOptions
// leaves Timeout zero; a dead node must not stall the whole merged view.
const DefaultScrapeTimeout = 3 * time.Second

// AggOptions tune the aggregator. The zero value reproduces the
// defaults (DefaultScrapeTimeout, no extra endpoints).
type AggOptions struct {
	// Timeout bounds each upstream HTTP request (≤0 means
	// DefaultScrapeTimeout). A slow node charges at most this much to
	// the merged view's latency — scrapes run in parallel — and shows
	// up in NodeScrape.Latency either way.
	Timeout time.Duration
	// Extra handlers are mounted on the aggregator's mux by
	// ServeAggregatorOpts under their map key (e.g. "/health" → a
	// Monitor's handler). Reserved paths (/cluster, /metrics, /healthz)
	// cannot be overridden.
	Extra map[string]http.HandlerFunc
}

func (o AggOptions) timeout() time.Duration {
	if o.Timeout <= 0 {
		return DefaultScrapeTimeout
	}
	return o.Timeout
}

// NodeScrape is one upstream's raw scrape. Err is per-node: a dead or
// half-started node degrades the merged view instead of failing it.
// Latency is the wall time of this node's scrape, whether or not it
// succeeded — a slow node is visible, not silent.
type NodeScrape struct {
	URL     string
	Err     error
	Latency time.Duration
	Metrics map[string]float64 // full metric line name → value
	Types   map[string]string  // base name → counter|gauge|histogram
}

// AggView is the merged cluster view Aggregate builds.
type AggView struct {
	// At is the scrape time.
	At time.Time
	// Nodes holds one scrape per URL, same order as the input.
	Nodes []NodeScrape
	// Metrics sums every metric line across nodes by its full name.
	// Counters sum into cluster totals; identically named gauges sum
	// too (per-node gauges carry node labels, so distinct nodes never
	// collide unless they publish the same series — in which case the
	// sum is the cluster-wide value, e.g. sendq depth). Histogram
	// _bucket/_sum/_count lines are cumulative counters, so summing
	// them merges the histograms exactly.
	Metrics map[string]float64
	// Types maps metric base names to their exposition type.
	Types map[string]string
}

// Aggregate scrapes every URL's /metrics and merges them with default
// options. It fails only if every node is unreachable, and
// still returns the view then; failed scrapes are reported per node in
// Nodes[i].Err.
func Aggregate(urls []string) (*AggView, error) {
	return AggregateOpts(urls, AggOptions{})
}

// AggregateOpts is Aggregate with explicit options (scrape timeout).
// It issues one GET of /metrics per upstream and no other request.
func AggregateOpts(urls []string, opts AggOptions) (*AggView, error) {
	v := &AggView{
		At:      time.Now(),
		Nodes:   make([]NodeScrape, len(urls)),
		Metrics: make(map[string]float64),
		Types:   make(map[string]string),
	}
	timeout := opts.timeout()
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			v.Nodes[i] = scrapeNode(url, timeout)
		}(i, url)
	}
	wg.Wait()
	ok := 0
	for i := range v.Nodes {
		n := &v.Nodes[i]
		if n.Err != nil {
			continue
		}
		ok++
		for name, val := range n.Metrics {
			v.Metrics[name] += val
		}
		for base, typ := range n.Types {
			v.Types[base] = typ
		}
	}
	if ok == 0 {
		var first error
		for i := range v.Nodes {
			if v.Nodes[i].Err != nil {
				first = v.Nodes[i].Err
				break
			}
		}
		return v, fmt.Errorf("obs: aggregate: no node of %d reachable: %w", len(urls), first)
	}
	return v, nil
}

// scrapeNode fetches and parses one node's /metrics.
func scrapeNode(url string, timeout time.Duration) (n NodeScrape) {
	n.URL = url
	start := time.Now()
	defer func() { n.Latency = time.Since(start) }()
	body, err := fetch(&http.Client{Timeout: timeout}, url+"/metrics")
	if err != nil {
		n.Err = err
		return n
	}
	n.Metrics, n.Types, n.Err = ParsePrometheus(strings.NewReader(body))
	return n
}

func fetch(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("obs: GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// ParsePrometheus parses the text exposition format into metric values
// (full line name → value) and base-name types. It accepts exactly what
// WritePrometheus emits — `name value`, `name{labels} value`, `# TYPE`
// headers — and errors on anything else, which doubles as a conformance
// check of the exporter (see TestPrometheusConformance).
func ParsePrometheus(r io.Reader) (map[string]float64, map[string]string, error) {
	metrics := make(map[string]float64)
	types := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			// Only "# TYPE <base> <type>" headers are meaningful here;
			// other comments are permitted and skipped.
			if len(fields) == 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					types[fields[2]] = fields[3]
				default:
					return nil, nil, fmt.Errorf("obs: prometheus line %d: unknown type %q", lineNo, fields[3])
				}
			}
			continue
		}
		// Split on the last space: the name may contain spaces only
		// inside label values, which WritePrometheus never emits, but
		// label values may contain '=' and ','.
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, nil, fmt.Errorf("obs: prometheus line %d: no value: %q", lineNo, line)
		}
		name, vals := line[:cut], line[cut+1:]
		if err := checkMetricName(name); err != nil {
			return nil, nil, fmt.Errorf("obs: prometheus line %d: %v", lineNo, err)
		}
		val, err := strconv.ParseFloat(vals, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: prometheus line %d: bad value %q", lineNo, vals)
		}
		if _, dup := metrics[name]; dup {
			return nil, nil, fmt.Errorf("obs: prometheus line %d: duplicate series %q", lineNo, name)
		}
		metrics[name] = val
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return metrics, types, nil
}

// checkMetricName validates `base` or `base{label="v",...}` shape.
func checkMetricName(name string) error {
	base := name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return fmt.Errorf("unbalanced labels in %q", name)
		}
		base = name[:i]
		labels := name[i+1 : len(name)-1]
		if labels == "" {
			return fmt.Errorf("empty label set in %q", name)
		}
		for _, part := range splitLabels(labels) {
			k, v, ok := strings.Cut(part, "=")
			if !ok || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return fmt.Errorf("malformed label %q in %q", part, name)
			}
		}
	}
	if base == "" {
		return fmt.Errorf("empty metric name in %q", name)
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return fmt.Errorf("invalid metric name %q", base)
		}
	}
	return nil
}

// splitLabels splits a label body on commas that sit outside quoted
// values.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// Value returns a merged metric by its full line name (0 if absent).
func (v *AggView) Value(name string) float64 { return v.Metrics[name] }

// Dist computes the distribution of a per-node gauge family: every
// merged metric whose base name is base (e.g. "cluster_node_load")
// contributes one point. Returns the member count, mean, population
// std, and the paper's variation density std/mean (0 when the mean is
// 0) — the cluster-wide load distribution when applied to the per-node
// load gauges.
func (v *AggView) Dist(base string) (n int, mean, std, vd float64) {
	var sum, sumsq float64
	for name, val := range v.Metrics {
		if baseName(name) != base {
			continue
		}
		n++
		sum += val
		sumsq += val * val
	}
	mean, std, vd = Moments(float64(n), sum, sumsq)
	return n, mean, std, vd
}

// WritePrometheus re-exports the merged metrics in exposition format,
// with # TYPE headers where the upstream type is known.
func (v *AggView) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(v.Metrics))
	for name := range v.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	lastBase := ""
	for _, name := range names {
		base := baseName(name)
		// Histogram component lines (_bucket/_sum/_count) belong to the
		// base histogram's TYPE header.
		hdr := base
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t := strings.TrimSuffix(base, suf); t != base && v.Types[t] == "histogram" {
				hdr = t
				break
			}
		}
		if hdr != lastBase {
			if t, ok := v.Types[hdr]; ok {
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", hdr, t); err != nil {
					return err
				}
			}
			lastBase = hdr
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", name, v.Metrics[name]); err != nil {
			return err
		}
	}
	return nil
}

// clusterDoc is the /cluster JSON document of the aggregator endpoint.
type clusterDoc struct {
	At    time.Time          `json:"at"`
	Nodes []clusterNodeDoc   `json:"nodes"`
	Load  clusterLoadDoc     `json:"load"`
	Sums  map[string]float64 `json:"metrics"`
}

type clusterNodeDoc struct {
	URL      string  `json:"url"`
	OK       bool    `json:"ok"`
	ScrapeMS float64 `json:"scrape_ms"`
	Err      string  `json:"err,omitempty"`
}

type clusterLoadDoc struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	VD   float64 `json:"vd"`
}

// LoadGaugeBase is the per-node load gauge family the aggregator's
// /cluster view summarizes (what internal/cluster publishes).
const LoadGaugeBase = "cluster_node_load"

// ServeAggregator starts an aggregator debug server on addr over the
// given upstream node URLs. Every request triggers a fresh parallel
// scrape, so the merged view is always current and the aggregator holds
// no state between requests. Endpoints:
//
//	/cluster   merged JSON: per-node reachability, the cluster load
//	           distribution (mean/std/global VD over cluster_node_load)
//	           and the summed metrics
//	/metrics   the merged metrics re-exported as Prometheus text
//	/healthz   aggregator liveness plus the upstream URL count
//
// ServeAggregatorOpts additionally mounts opts.Extra handlers (reserved
// paths keep their built-in handler) and scrapes with opts.Timeout.
func ServeAggregator(addr string, urls []string) (*DebugServer, error) {
	return ServeAggregatorOpts(addr, urls, AggOptions{})
}

// ServeAggregatorOpts is ServeAggregator with explicit options.
func ServeAggregatorOpts(addr string, urls []string, opts AggOptions) (*DebugServer, error) {
	mux := newMux(opts.Extra, "/healthz", "/cluster", "/metrics")
	scrape := func(w http.ResponseWriter) *AggView {
		v, err := AggregateOpts(urls, opts)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return nil
		}
		return v
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok\nrole=aggregator\nupstreams=%d\n", len(urls))
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) {
		v := scrape(w)
		if v == nil {
			return
		}
		doc := clusterDoc{At: v.At, Sums: v.Metrics}
		for i := range v.Nodes {
			nd := clusterNodeDoc{
				URL:      v.Nodes[i].URL,
				OK:       v.Nodes[i].Err == nil,
				ScrapeMS: float64(v.Nodes[i].Latency) / float64(time.Millisecond),
			}
			if v.Nodes[i].Err != nil {
				nd.Err = v.Nodes[i].Err.Error()
			}
			doc.Nodes = append(doc.Nodes, nd)
		}
		doc.Load.N, doc.Load.Mean, doc.Load.Std, doc.Load.VD = v.Dist(LoadGaugeBase)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		v := scrape(w)
		if v == nil {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = v.WritePrometheus(w)
	})
	return startServer(addr, "aggregator", mux)
}
