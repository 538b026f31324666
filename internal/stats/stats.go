// Package stats provides the small statistical toolkit used by the
// simulator and the experiment harnesses: streaming accumulators (Welford),
// mergeable across parallel simulation runs; per-time-step series; and
// slice helpers.
//
// The experiments in the paper report, for each configuration, the average,
// minimum and maximum load observed over 100 independent runs, plus the
// variation density VD(X) = sqrt(Var X)/E X (paper §5). Everything here is
// written so those aggregates can be computed in one pass and combined from
// per-run partial results without storing raw samples.
package stats

import (
	"fmt"
	"math"
)

// Accumulator is a streaming mean/variance/min/max accumulator using
// Welford's algorithm. The zero value is an empty accumulator ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Merge combines another accumulator into a (parallel-runs reduction) using
// Chan et al.'s pairwise update. After Merge, a summarizes the union of both
// sample sets; b is unchanged.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	delta := b.mean - a.mean
	total := a.n + b.n
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(total)
	a.mean += delta * float64(b.n) / float64(total)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = total
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the population variance (dividing by n), or 0 when n < 1.
func (a *Accumulator) Var() float64 {
	if a.n < 1 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// Std returns the population standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation, or 0 for an empty accumulator.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation, or 0 for an empty accumulator.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// VariationDensity returns Std/Mean, the paper's §5 quality measure, or 0
// when the mean is 0.
func (a *Accumulator) VariationDensity() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.Std() / a.mean
}

// String formats the accumulator for logs and experiment tables.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4f std=%.4f min=%.4f max=%.4f",
		a.n, a.Mean(), a.Std(), a.Min(), a.Max())
}

// Series is a fixed-length vector of accumulators indexed by time step,
// aggregating one observation per step per run. It is the backbone of the
// Fig. 7/8 reproduction (average/min/max load per global time step over 100
// runs).
//
// A Series may be strided: with stride k > 1 only steps t with
// (t+1) % k == 0 own an accumulator, and the backing vector holds
// ⌈steps/k⌉ slots instead of steps. Strided series keep the memory of
// multi-million-step simulations bounded (a per-step series over 8·10⁶
// steps would cost >1 GB across the four observables) while the caller
// still addresses accumulators by global time step.
type Series struct {
	acc    []Accumulator
	steps  int
	stride int
}

// NewSeriesStride returns a Series over steps time steps that records only
// every stride-th step (those t with (t+1) % stride == 0). stride < 1 is
// treated as 1.
func NewSeriesStride(steps, stride int) *Series {
	if stride < 1 {
		stride = 1
	}
	slots := steps / stride
	if steps%stride != 0 {
		slots++
	}
	return &Series{acc: make([]Accumulator, slots), steps: steps, stride: stride}
}

// Len returns the number of time steps (not slots).
func (s *Series) Len() int { return s.steps }

// Stride returns the sampling stride (1 for a per-step series).
func (s *Series) Stride() int { return s.stride }

// Sampled reports whether time step t owns an accumulator.
func (s *Series) Sampled(t int) bool { return (t+1)%s.stride == 0 }

// Add incorporates observation x at time step t. For a strided series t
// must be a sampled step.
func (s *Series) Add(t int, x float64) { s.acc[t/s.stride].Add(x) }

// At returns the accumulator for time step t. For a strided series,
// non-sampled steps map to the slot of the nearest sampled step at or
// before t+stride-1; callers should consult Sampled when exactness
// matters.
func (s *Series) At(t int) *Accumulator { return &s.acc[t/s.stride] }

// Merge combines another series of the same length and stride into s.
// It panics if the shapes differ.
func (s *Series) Merge(o *Series) {
	if len(s.acc) != len(o.acc) || s.stride != o.stride {
		panic("stats: merging series of different shapes")
	}
	for i := range s.acc {
		s.acc[i].Merge(&o.acc[i])
	}
}

// Means returns the per-step means as a slice.
func (s *Series) Means() []float64 {
	out := make([]float64, len(s.acc))
	for i := range s.acc {
		out[i] = s.acc[i].Mean()
	}
	return out
}

// Mins returns the per-step minima.
func (s *Series) Mins() []float64 {
	out := make([]float64, len(s.acc))
	for i := range s.acc {
		out[i] = s.acc[i].Min()
	}
	return out
}

// Maxs returns the per-step maxima.
func (s *Series) Maxs() []float64 {
	out := make([]float64, len(s.acc))
	for i := range s.acc {
		out[i] = s.acc[i].Max()
	}
	return out
}

// MeanOf returns the mean of xs, or 0 for empty input.
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
