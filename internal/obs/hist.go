package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// atomicFloat is an atomic float64 accumulator (CAS on the bit
// pattern). Adds are lock-free and allocation-free.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram with online first and second
// moments, so mean, standard deviation and the paper's variation
// density VD = sqrt(E(l²)−E(l)²)/E(l) are available live without
// storing samples. Buckets are upper bounds (ascending) plus an
// implicit +Inf overflow bucket. Observations are a linear bucket scan
// (bucket counts are small and fixed) plus three atomic adds — no
// locks, no allocation. All methods no-op on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomicFloat
	sumsq  atomicFloat
}

// NewHistogram builds a histogram with the given ascending upper
// bounds. Empty bounds yield a single +Inf bucket (moments only).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.sumsq.Add(v * v)
}

// ObserveSince records the seconds elapsed since t0 — the idiom for
// protocol-phase timings.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.sum.Load() / float64(h.count.Load())
}

// Std returns the population standard deviation from the online
// moments, or 0 when empty. (Clamped at 0 against floating cancellation
// when all observations are equal.)
func (h *Histogram) Std() float64 {
	if h == nil {
		return 0
	}
	n := float64(h.count.Load())
	if n == 0 {
		return 0
	}
	mean := h.sum.Load() / n
	varr := h.sumsq.Load()/n - mean*mean
	if varr < 0 {
		varr = 0
	}
	return math.Sqrt(varr)
}

// VD returns the variation density Std/Mean — the paper's §5 quality
// measure — or 0 when the mean is 0.
func (h *Histogram) VD() float64 {
	m := h.Mean()
	if m == 0 {
		return 0
	}
	return h.Std() / m
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the bucket where the cumulative count crosses the rank. The
// overflow bucket reports its lower bound (there is no upper edge).
// Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i >= len(h.bounds) {
				return lo // overflow bucket: no upper edge
			}
			hi := h.bounds[i]
			frac := (rank - cum) / c
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Buckets returns copies of the bucket upper bounds and their
// (non-cumulative) counts, overflow last.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// writePrometheus emits the histogram in exposition format: cumulative
// le buckets, _sum and _count, preserving any inline labels.
func (h *Histogram) writePrometheus(w io.Writer, base, labels string) error {
	withLe := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("%s_bucket{le=%q}", base, le)
		}
		return fmt.Sprintf("%s_bucket{%s,le=%q}", base, labels, le)
	}
	suffixed := func(suffix string) string {
		if labels == "" {
			return base + suffix
		}
		return fmt.Sprintf("%s%s{%s}", base, suffix, labels)
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", withLe(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %g\n", suffixed("_sum"), h.sum.Load()); err != nil {
		return err
	}
	// _count is the +Inf bucket as read in this pass, not the separate
	// counter: an Observe racing the scrape would otherwise leave _count
	// ahead of the buckets, and a reader of deltas (Monitor) would count
	// the difference as observations above every bound.
	_, err := fmt.Fprintf(w, "%s %d\n", suffixed("_count"), cum)
	return err
}

// jsonValue renders the histogram for Registry.WriteJSON.
func (h *Histogram) jsonValue() map[string]any {
	bounds, counts := h.Buckets()
	buckets := make(map[string]int64, len(counts))
	for i, c := range counts {
		le := "+Inf"
		if i < len(bounds) {
			le = formatFloat(bounds[i])
		}
		buckets[le] = c
	}
	return map[string]any{
		"count":   h.Count(),
		"sum":     h.Sum(),
		"mean":    h.Mean(),
		"std":     h.Std(),
		"vd":      h.VD(),
		"buckets": buckets,
	}
}

func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// ExpBuckets returns n exponential bucket bounds: start, start*factor,
// start*factor², … It panics on non-positive start/factor or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LogBuckets returns log-spaced bucket bounds covering [lo, hi] with
// perDecade buckets per factor-of-10: lo·10^(i/perDecade) for
// i = 0 … ⌈perDecade·log₁₀(hi/lo)⌉, so the last bound is ≥ hi. It is
// the bucket scheme for quantities spanning many orders of magnitude
// (e.g. sojourn times from microseconds to seconds): every bucket has
// the same *relative* width 10^(1/perDecade)−1, which bounds the
// relative error of Quantile uniformly across the range — a doubling
// scheme like ExpBuckets gives up to 100% relative error per bucket,
// which crushes a p99 read out of a seconds-wide top bucket. It panics
// on lo <= 0, hi <= lo, or perDecade < 1.
func LogBuckets(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade < 1 {
		panic("obs: LogBuckets needs 0 < lo < hi and perDecade >= 1")
	}
	n := int(math.Ceil(float64(perDecade) * math.Log10(hi/lo)))
	out := make([]float64, n+1)
	for i := range out {
		out[i] = lo * math.Pow(10, float64(i)/float64(perDecade))
	}
	return out
}

// LatencyBuckets is the default bucket scheme for protocol-phase
// timings in seconds: 10 µs … ~5 s, doubling. A healthy in-process
// reply lands in the first few buckets; socket-latency stalls and
// timeout-scale waits land in the top ones, so the freeze-window loss
// the wirecost experiment exposed is visible in one histogram.
var LatencyBuckets = ExpBuckets(10e-6, 2, 20)

// SojournBuckets is the default bucket scheme for end-to-end job
// sojourn times in seconds: 1 µs … 10 s at 10 buckets per decade, so a
// quantile read anywhere in the range carries at most ~26% relative
// bucket error (see LogBuckets and TestLogBucketsQuantileErrorBound).
var SojournBuckets = LogBuckets(1e-6, 10, 10)

// LoadBuckets is the default bucket scheme for live load-distribution
// histograms: 0, 1, 2, 4, … 4096 packets.
var LoadBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
