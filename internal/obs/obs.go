// Package obs is the repository's zero-dependency observability layer:
// atomic counters and gauges and fixed-bucket histograms with online
// moments, collected behind a Registry that can export everything as
// Prometheus text or JSON. Events — what happened to which operation
// on which node — are not kept here: the flight recorder
// (internal/flight) is their one record.
//
// # Cost model
//
// Instrumentation must be cheap enough to leave compiled into every
// hot path, so the layer is built around two invariants:
//
//   - Disabled is (almost) free. Every handle type (*Counter, *Gauge,
//     *Histogram) is nil-safe: methods on a nil receiver are a
//     single predictable branch, so a component handed a nil *Registry
//     gets nil handles and its instrumentation compiles down to no-ops
//     (~1 ns, zero allocations — see BenchmarkObsDisabled).
//   - Enabled is allocation-free. Counters and gauges are one atomic
//     add; a histogram observation is a short linear bucket scan plus
//     three atomic adds. No locks, no maps, no interface boxing on the
//     observation path. Registration (Registry.Counter etc.) does take
//     a lock and may allocate — components are expected to resolve
//     their handles once, up front, and hold them.
//
// # Naming
//
// Metric names follow the Prometheus convention, including inline
// labels: "cluster_aborts_total{reason=\"timeout\"}". The registry
// treats the whole string as the identity; the Prometheus exporter
// groups metrics that share a base name (the part before '{') under
// one # TYPE header.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use, and all methods are safe on a nil receiver (no-ops),
// which is the disabled-instrumentation path.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds d (callers should keep counters monotone: d >= 0).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, current load).
// Zero value ready; nil receiver no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Max raises the gauge to v if v is larger — a lock-free high-water
// mark, safe against concurrent Max calls.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Metric is implemented by the exportable metric kinds (*Counter,
// *Gauge, *Histogram). It exists so Attach is type-safe without the
// registry knowing about concrete construction.
type Metric interface{ metricType() string }

func (*Counter) metricType() string   { return "counter" }
func (*Gauge) metricType() string     { return "gauge" }
func (*Histogram) metricType() string { return "histogram" }

// Registry is a named collection of metrics plus an optional
// time-series recorder. All methods are safe for concurrent use and
// safe on a nil receiver: a nil *Registry hands out nil handles,
// turning the entire instrumentation of a component into no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]Metric
	rec     *Recorder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]Metric)}
}

// Counter returns the counter registered under name, creating it if
// needed. Returns nil (a no-op handle) on a nil registry or if the name
// is already taken by a different metric kind.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return new(Counter) })
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (ascending; an implicit +Inf
// overflow bucket is appended) if needed. An existing histogram keeps
// its original buckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return lookup(r, name, func() *Histogram { return NewHistogram(bounds) })
}

// lookup returns the metric of kind M registered under name, creating
// it with mk if the name is free: nil on a nil registry or when the
// name holds another kind.
func lookup[M Metric](r *Registry, name string, mk func() M) M {
	var none M
	if r == nil {
		return none
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		got, _ := m.(M)
		return got
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Attach registers an externally created metric under name, so a
// component that keeps its own zero-value counters (e.g. a wire
// transport that must count even without a registry) can publish them.
// The first registration wins; attaching to a nil registry no-ops.
func (r *Registry) Attach(name string, m Metric) {
	if r == nil || m == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; !ok {
		r.metrics[name] = m
	}
}

// Recorder returns the registry's time-series recorder, or nil if none
// was attached. It is not auto-created: a recorder's columns are
// component-specific, so whoever owns the registry decides
// what to record (e.g. cluster.NewRecorder) and attaches it with
// SetRecorder.
func (r *Registry) Recorder() *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec
}

// SetRecorder attaches the registry's time-series recorder; the debug
// server's /series endpoint exports it. Intended for setup time.
func (r *Registry) SetRecorder(rec *Recorder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rec = rec
	r.mu.Unlock()
}

// names returns the registered metric names, sorted, plus the metric
// map snapshot (so exporters iterate without holding the lock).
func (r *Registry) snapshot() ([]string, map[string]Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	ms := make(map[string]Metric, len(r.metrics))
	for n, m := range r.metrics {
		names = append(names, n)
		ms[n] = m
	}
	sort.Strings(names)
	return names, ms
}

// baseName strips the inline label part: "a_total{x=\"y\"}" → "a_total".
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelPart returns the inline label part without braces, or "".
func labelPart(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return strings.TrimSuffix(name[i+1:], "}")
	}
	return ""
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format, sorted by name, with # TYPE headers per base name.
// Histograms expand into cumulative _bucket series plus _sum and
// _count. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	names, ms := r.snapshot()
	lastBase := ""
	for _, name := range names {
		m := ms[name]
		base := baseName(name)
		if base != lastBase {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, m.metricType()); err != nil {
				return err
			}
			lastBase = base
		}
		var err error
		switch v := m.(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s %d\n", name, v.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s %d\n", name, v.Value())
		case *Histogram:
			err = v.writePrometheus(w, base, labelPart(name))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the registry as one JSON object keyed by metric
// name: counters and gauges as numbers, histograms as objects carrying
// count/sum/mean/std/vd and the bucket counts. Keys are sorted (JSON
// object marshaling), so output is deterministic for a given state.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	_, ms := r.snapshot()
	out := make(map[string]any, len(ms))
	for name, m := range ms {
		switch v := m.(type) {
		case *Counter:
			out[name] = v.Value()
		case *Gauge:
			out[name] = v.Value()
		case *Histogram:
			out[name] = v.jsonValue()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
