package obs

import "testing"

// nilReg is a package-level nil registry so the compiler cannot prove
// the handles nil at the benchmark call sites and fold the loop away.
var nilReg *Registry

// BenchmarkObsDisabled measures the disabled-instrumentation path: a
// component holding handles from a nil registry — cheap enough to leave
// compiled into every hot path (0 allocs: TestDisabledPathAllocationFree;
// the bounded nanoseconds are the ledger's obs.disabled_ns).
func BenchmarkObsDisabled(b *testing.B) {
	c := nilReg.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsDisabledHistogram is the disabled path for histograms.
func BenchmarkObsDisabledHistogram(b *testing.B) {
	h := nilReg.Histogram("h", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

// BenchmarkObsCounter is one enabled counter increment (one atomic
// add); must be allocation-free.
func BenchmarkObsCounter(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != int64(b.N) {
		b.Fatal("lost increments")
	}
}

// BenchmarkObsGauge is one enabled gauge set.
func BenchmarkObsGauge(b *testing.B) {
	reg := NewRegistry()
	g := reg.Gauge("g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

// BenchmarkObsHistogram is one enabled observation on the default
// 20-bucket latency scheme (bucket scan + three atomic adds); must be
// allocation-free.
func BenchmarkObsHistogram(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("h", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
	if h.Count() != int64(b.N) {
		b.Fatal("lost observations")
	}
}
