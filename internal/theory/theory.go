// Package theory implements the paper's closed-form analysis: the
// fixed-point bound FIX(n,δ,f) of Theorems 1–2, the increase/decrease
// operators G and C of §3, the decrease-cost bounds of §6 (Lemmas 5 and 6),
// and the variation density computation of §5 (exact enumeration for small
// instances plus Monte Carlo over computation graphs at figure scale).
//
// Everything here is a pure function of (n, δ, f); the experiment harness
// compares these predictions against the simulator's measurements.
package theory

import (
	"fmt"
	"math"

	"lmbalance/internal/rng"
	"lmbalance/internal/stats"
)

// A returns the paper's helper constant
//
//	A = (f − f·n + δ(n−2) + (n−1)) / (2δf).
func A(n, delta int, f float64) float64 {
	nf := float64(n)
	d := float64(delta)
	return (f - f*nf + d*(nf-2) + (nf - 1)) / (2 * d * f)
}

// FIX returns the fixed point of the operator G,
//
//	FIX(n,δ,f) = sqrt((n−1)/f + A²) − A,
//
// the Theorem 1 bound on the expected-load ratio between the generating
// processor and any other processor.
func FIX(n, delta int, f float64) float64 {
	a := A(n, delta, f)
	return math.Sqrt(float64(n-1)/f+a*a) - a
}

// FixLimit returns lim_{n→∞} FIX(n,δ,f) = δ/(δ+1−f), the network-size
// independent bound of Theorem 2. It panics if f >= δ+1 where the bound
// diverges.
func FixLimit(delta int, f float64) float64 {
	d := float64(delta)
	if f >= d+1 {
		panic(fmt.Sprintf("theory: FixLimit diverges for f=%v >= delta+1=%v", f, d+1))
	}
	return d / (d + 1 - f)
}

// G applies the paper's increase operator once:
//
//	G(k) = (kf+δ)(n−1) / (δkf + δ(n−2) + (n−1)).
//
// If the expected-load ratio before a balancing operation is k, it is G(k)
// after the generating processor's load grew by the factor f and was
// balanced with δ random partners (Lemma 1).
func G(n, delta int, f, k float64) float64 {
	nf := float64(n)
	d := float64(delta)
	return (k*f + d) * (nf - 1) / (d*k*f + d*(nf-2) + (nf - 1))
}

// C applies the decrease operator — G with f replaced by 1/f — modeling a
// workload decrease by the factor f followed by a balancing operation.
func C(n, delta int, f, k float64) float64 {
	return G(n, delta, 1/f, k)
}

// IterateG returns the trajectory G¹(1), G²(1), …, G^t(1): the
// expected-load ratio after each of t balancing operations in the
// one-processor-generator model started balanced.
func IterateG(n, delta int, f float64, t int) []float64 {
	out := make([]float64, t)
	k := 1.0
	for i := 0; i < t; i++ {
		k = G(n, delta, f, k)
		out[i] = k
	}
	return out
}

// IterateC is IterateG for the decrease operator.
func IterateC(n, delta int, f float64, t int) []float64 {
	out := make([]float64, t)
	k := 1.0
	for i := 0; i < t; i++ {
		k = C(n, delta, f, k)
		out[i] = k
	}
	return out
}

// Theorem4Bound returns the full-model guarantee of Theorem 4(2): for any
// two processors, E(l_i) ≤ f²·δ/(δ+1−f) · (E(l_j) + C).
// It returns the multiplicative factor f²·δ/(δ+1−f).
func Theorem4Bound(delta int, f float64) float64 {
	return f * f * FixLimit(delta, f)
}

// decreaseU returns the paper's §6 constant
//
//	U = 1/(f(δ+1)) · (1 + fδ/FIX(n,δ,1/f)),
//
// the per-iteration load multiplier lower-bounding the decrease process.
func decreaseU(n, delta int, f float64) float64 {
	d := float64(delta)
	return (1 + f*d/FIX(n, delta, 1/f)) / (f * (d + 1))
}

// decreaseD returns the paper's §6 constant
//
//	D = 1/(f(δ+1)) · (1 + δf/FIX(n,δ,f)),
//
// the per-iteration load multiplier upper-bounding the decrease process.
func decreaseD(n, delta int, f float64) float64 {
	d := float64(delta)
	return (1 + d*f/FIX(n, delta, f)) / (f * (d + 1))
}

// Lemma5Lower returns the paper's lower bound on the expected number of
// balancing operations needed to decrease the class-i load on processor i
// from x to x−c > 0:
//
//	t ≥ max{0, ⌊ log( (f²(c−x)+x−1)/((f−1)(x+1)) · (U−1) + 1 ) / log U ⌋}.
func Lemma5Lower(n, delta int, f float64, x, c int) int {
	if f <= 1 {
		return 0 // the bound's (f−1) denominator degenerates; vacuous
	}
	u := decreaseU(n, delta, f)
	xf, cf := float64(x), float64(c)
	arg := (f*f*(cf-xf)+xf-1)/((f-1)*(xf+1))*(u-1) + 1
	if arg <= 0 || u <= 0 || u == 1 {
		return 0
	}
	t := math.Floor(math.Log(arg) / math.Log(u))
	if t < 0 || math.IsNaN(t) {
		return 0
	}
	return int(t)
}

// Lemma5Upper returns the paper's upper bound
//
//	t ≤ ⌈ log( (c+xf−x−f)/((x−1)f(1−1/f)) · (D−1) + 1 ) / log D ⌉,
//
// valid only when 1/(1−D) ≥ (c+xf−x−f)/((x−1)f(1−1/f)); ok reports whether
// that precondition holds.
func Lemma5Upper(n, delta int, f float64, x, c int) (t int, ok bool) {
	if f <= 1 || x <= 1 {
		return 0, false
	}
	d := decreaseD(n, delta, f)
	xf, cf := float64(x), float64(c)
	ratio := (cf + xf*f - xf - f) / ((xf - 1) * f * (1 - 1/f))
	if d >= 1 || 1/(1-d) < ratio {
		return 0, false
	}
	arg := ratio*(d-1) + 1
	if arg <= 0 {
		return 0, false
	}
	v := math.Ceil(math.Log(arg) / math.Log(d))
	if v < 0 || math.IsNaN(v) {
		return 0, false
	}
	return int(v), true
}

// Lemma6Upper returns the improved upper bound: the smallest ⌈t⌉ with
//
//	Σ_{i=0}^{t−2} Π_{j=0}^{i} D_j ≥ (c−1)/((x−1)f(1−1/f)),
//
// where D_i = 1/(f(δ+1))·(1 + δf/C^i(FIX(n,δ,f))) tracks the drifting
// expected-load ratio through the decrease operator. Returns 0 if the
// parameters degenerate and -1 if the target is unreachable within maxIter
// iterations (the sum converges below the target).
func Lemma6Upper(n, delta int, f float64, x, c int, maxIter int) int {
	if f <= 1 || x <= 1 {
		return 0
	}
	target := (float64(c) - 1) / ((float64(x) - 1) * f * (1 - 1/f))
	if target <= 0 {
		return 0
	}
	d := float64(delta)
	ratio := FIX(n, delta, f)
	sum := 0.0
	prod := 1.0
	for i := 0; i < maxIter; i++ {
		di := (1 + d*f/ratio) / (f * (d + 1))
		prod *= di
		sum += prod
		if sum >= target {
			return i + 2 // Σ runs to t−2, so t = i + 2
		}
		ratio = C(n, delta, f, ratio)
	}
	return -1
}

// DecreaseProcess simulates the §6 benchmark in the expected-value model:
// processor 0 holds x units of its own class and every other processor
// holds x/FIX(n,δ,f) (the steady state reached while the class was
// growing). The processor then simulates a workload decrease of c packets:
// it consumes its own-class load down by the factor f, which fires the
// decrease trigger and a balancing operation with δ random partners that
// refills it from the network; this repeats until c packets have been
// consumed in total. Lemma 5/6 bound the expected number of balancing
// operations this takes.
//
// It returns that count averaged over runs Monte Carlo repetitions
// (randomness: the candidate choices), along with the standard deviation.
func DecreaseProcess(n, delta int, f float64, x, c float64, runs int, seed uint64) (mean, std float64) {
	if runs < 1 {
		runs = 1
	}
	r := rng.New(seed)
	var acc stats.Accumulator
	for run := 0; run < runs; run++ {
		rr := r.Split()
		w := make([]float64, n)
		other := x / FIX(n, delta, f)
		for i := range w {
			w[i] = other
		}
		w[0] = x
		consumed := 0.0
		iters := 0
		for consumed < c && iters < 1000000 {
			canConsume := w[0] * (1 - 1/f) // until the decrease trigger fires
			if consumed+canConsume >= c {
				break // target reached without another balancing operation
			}
			consumed += canConsume
			w[0] /= f
			cands := rr.SampleDistinct(n, delta, 0, nil)
			sum := w[0]
			for _, cd := range cands {
				sum += w[cd]
			}
			avg := sum / float64(delta+1)
			w[0] = avg
			for _, cd := range cands {
				w[cd] = avg
			}
			iters++
		}
		acc.Add(float64(iters))
	}
	return acc.Mean(), acc.Std()
}
