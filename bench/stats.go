package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// quantile returns the q-quantile of an ascending-sorted sample by the
// nearest-rank rule; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// The host this runs on is shared: raw CPU speed drops by up to half for
// a second or two at a time, and never rises above its undisturbed
// level. Noise is one-sided, so a figure read off many sub-windows is
// taken at the quartile nearest the undisturbed state — the lower
// quartile of times, the upper quartile of rates — not at the median,
// which moves with how many sub-windows an episode happened to hit.

// lowQuartile is the first quartile (nearest rank) of xs.
func lowQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.25)
}

// highQuartile is the third quartile (nearest rank) of xs.
func highQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.75)
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spreads
// printed here are the ones the acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// lhist is a log-linear histogram of non-negative nanosecond values:
// 16 sub-buckets per power of two, so a quantile read off it is within
// about 3 % of the sample. It exists for the traced pass, where every
// send and hand-off is timed and keeping the samples would dominate the
// memory being measured. Not safe for concurrent use.
type lhist struct {
	counts [61 * 16]uint64
	n      uint64
	sum    float64
}

func lhistIndex(v int64) int {
	if v < 16 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // ≥ 4
	return (e-3)*16 + int((uint64(v)>>(uint(e)-4))&15)
}

// lhistValue is the midpoint of bucket i.
func lhistValue(i int) float64 {
	if i < 16 {
		return float64(i)
	}
	e := uint(i/16 + 3)
	lo := (uint64(1) << e) + uint64(i%16)<<(e-4)
	return float64(lo) + float64(uint64(1)<<(e-4))/2
}

func (h *lhist) add(ns int64) {
	h.counts[lhistIndex(ns)]++
	h.n++
	h.sum += float64(ns)
}

func (h *lhist) merge(o *lhist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *lhist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

func (h *lhist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return lhistValue(i)
		}
	}
	return lhistValue(len(h.counts) - 1)
}

// bucketQuantile reads a quantile off merged fixed-bucket counts (the
// shape obs.Histogram.Buckets returns, overflow last), interpolating
// inside the bucket the rank falls in like obs.Histogram.Quantile.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		fc := float64(c)
		if c > 0 && cum+fc >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				return lo
			}
			return lo + (bounds[i]-lo)*(rank-cum)/fc
		}
		cum += fc
	}
	return bounds[len(bounds)-1]
}

// fmtList renders values for a run's notes.
func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// describeSetups renders a run's bring-up times for its notes.
func describeSetups(setups []float64) string {
	s := append([]float64(nil), setups...)
	sort.Float64s(s)
	return fmt.Sprintf("%d bring-ups, ms: min %.3f, p10 %.3f, p25 %.3f, median %.3f, max %.3f",
		len(s), s[0]*1e3, quantile(s, 0.10)*1e3, quantile(s, 0.25)*1e3, quantile(s, 0.50)*1e3, s[len(s)-1]*1e3)
}

// tailMean is the mean of the slowest share of the observations in
// fixed-bucket counts (the shape obs.Histogram.Buckets returns, overflow
// last), each bucket standing at the geometric middle of its bounds. A
// quantile read off coarse buckets jumps when it crosses a bucket edge;
// the tail mean is an integral over the tail, so mass moving across an
// edge moves it smoothly.
func tailMean(bounds []float64, counts []int64, share float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	want := share * float64(total)
	if want <= 0 {
		return 0
	}
	var got, sum float64
	for i := len(counts) - 1; i >= 0 && got < want; i-- {
		var mid float64
		switch {
		case i >= len(bounds): // overflow: no upper edge
			mid = bounds[len(bounds)-1]
		case i == 0:
			mid = bounds[0] / 2
		default:
			mid = math.Sqrt(bounds[i-1] * bounds[i])
		}
		take := math.Min(float64(counts[i]), want-got)
		got += take
		sum += take * mid
	}
	return sum / got
}
