package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
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
	mean, _, _ := h.moments()
	return mean
}

// Std returns the population standard deviation from the online
// moments, or 0 when empty.
func (h *Histogram) Std() float64 {
	_, std, _ := h.moments()
	return std
}

// VD returns the variation density Std/Mean — the paper's §5 quality
// measure — or 0 when the mean is 0.
func (h *Histogram) VD() float64 {
	_, _, vd := h.moments()
	return vd
}

func (h *Histogram) moments() (mean, std, vd float64) {
	if h == nil {
		return 0, 0, 0
	}
	return Moments(float64(h.count.Load()), h.sum.Load(), h.sumsq.Load())
}

// Moments returns the mean, the population standard deviation and the
// variation density std/mean of n values with the given sum and sum of
// squares: all 0 when n is 0, vd 0 when the mean is. The variance is
// clamped at 0 against floating cancellation when all values are equal.
// Histograms and the aggregator's cross-node distributions both compute
// their moments here.
func Moments(n, sum, sumsq float64) (mean, std, vd float64) {
	if n == 0 {
		return 0, 0, 0
	}
	mean = sum / n
	if varr := sumsq/n - mean*mean; varr > 0 {
		std = math.Sqrt(varr)
	}
	if mean != 0 {
		vd = std / mean
	}
	return mean, std, vd
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the bucket where the cumulative count crosses the rank. The
// overflow bucket reports its lower bound (there is no upper edge).
// Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 { return MergedQuantile(q, h) }

// MergedQuantile estimates the q-quantile of the histograms' summed
// bucket counts — the distribution of every observation any of them
// holds, e.g. one metric family across a cluster's nodes. The
// histograms must share one bucket layout; nil ones are skipped.
func MergedQuantile(q float64, hs ...*Histogram) float64 {
	var bounds, cum []float64
	for _, h := range hs {
		if h == nil {
			continue
		}
		if cum == nil {
			bounds, cum = h.bounds, make([]float64, len(h.counts))
		}
		c := 0.0
		for i := range h.counts {
			c += float64(h.counts[i].Load())
			cum[i] += c
		}
	}
	if len(cum) == 0 {
		return 0
	}
	return bucketQuantile(bounds, cum, cum[len(cum)-1], q)
}

// bucketQuantile inverts a bucketed distribution at q (clamped to
// [0, 1]): bounds are the finite ascending upper bounds, cum the
// cumulative count at each of them plus the overflow bucket last, and
// total the count the rank is a fraction of. Mass inside the bucket
// where the cumulative count crosses the rank is spread uniformly
// (linear interpolation); the overflow bucket has no upper edge and
// reports the last bound. Returns 0 when total is not positive.
//
// The counts may be differences of two cumulative snapshots (the health
// monitor's windows), which a counter reset can make non-monotone; the
// bucket chosen is still the first whose cumulative count reaches the
// rank.
func bucketQuantile(bounds, cum []float64, total, q float64) float64 {
	if total <= 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * total
	lo, below := 0.0, 0.0
	for i, n := range cum {
		if n >= rank && n > below {
			if i >= len(bounds) {
				return lo // overflow bucket: no upper edge
			}
			return lo + (bounds[i]-lo)*((rank-below)/(n-below))
		}
		if i < len(bounds) {
			lo = bounds[i]
		}
		below = n
	}
	return lo
}

// cumAt linearly interpolates a cumulative bucket count (bounds and cum
// as for bucketQuantile) at value x: buckets are (lower, le] ranges and
// the mass inside the one containing x is spread uniformly — the
// Prometheus histogram_quantile assumption in reverse. Above the last
// bound it is the count at that bound.
func cumAt(bounds, cum []float64, x float64) float64 {
	prevLE, prevN := 0.0, 0.0
	for i, le := range bounds {
		if x <= le {
			width := le - prevLE
			if width <= 0 {
				return prevN
			}
			return prevN + (cum[i]-prevN)*(x-prevLE)/width
		}
		prevLE, prevN = le, cum[i]
	}
	return prevN
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
