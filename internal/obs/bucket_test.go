package obs

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// The oracles below are the three bucket-quantile implementations and
// the window bad-fraction that obs and the experiments package kept
// before the bucket maths moved into bucketQuantile and cumAt, copied
// verbatim apart from their inputs (and the merge, which inverts its
// re-observed histogram with the old Histogram.Quantile).
// TestBucketMathMatchesOracles pins the shared code to them.

// oracleHistQuantile is the old Histogram.Quantile over a count vector
// (overflow last).
func oracleHistQuantile(bounds []float64, counts []int64, total int64, q float64) float64 {
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
	for i := range counts {
		c := float64(counts[i])
		if cum+c >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				return lo // overflow bucket: no upper edge
			}
			hi := bounds[i]
			frac := (rank - cum) / c
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// oracleMergedQuantile is the old experiments.mergedQuantile: sum the
// bucket counts, re-observe each bucket's midpoint into a fresh
// histogram and invert that.
func oracleMergedQuantile(hs []*Histogram, q float64) float64 {
	var bounds []float64
	var counts []int64
	for _, h := range hs {
		b, c := h.Buckets()
		if bounds == nil {
			bounds = b
			counts = make([]int64, len(c))
		}
		for i := range c {
			counts[i] += c[i]
		}
	}
	merged := NewHistogram(bounds)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := lo * 2
		if i < len(bounds) {
			hi = bounds[i]
		}
		mid := (lo + hi) / 2
		for j := int64(0); j < c; j++ {
			merged.Observe(mid)
		}
	}
	b, c := merged.Buckets()
	return oracleHistQuantile(b, c, merged.Count(), q)
}

// oracleSnap is the old monitor's snapshot: cumulative counts by le,
// +Inf last, plus the _count total.
type oracleSnap struct {
	count   float64
	buckets []oracleBucket
}

type oracleBucket struct{ le, n float64 }

func oracleCumAt(s oracleSnap, x float64) float64 {
	prevLE, prevN := 0.0, 0.0
	for _, b := range s.buckets {
		if x <= b.le {
			width := b.le - prevLE
			if width <= 0 || math.IsInf(b.le, 1) {
				return prevN
			}
			return prevN + (b.n-prevN)*(x-prevLE)/width
		}
		prevLE, prevN = b.le, b.n
	}
	return s.count
}

func oracleBadFrac(cur, old oracleSnap, threshold float64) float64 {
	total := cur.count - old.count
	if total <= 0 {
		return 0
	}
	good := oracleCumAt(cur, threshold) - oracleCumAt(old, threshold)
	bad := total - good
	if bad < 0 {
		bad = 0
	}
	return bad / total
}

func oracleWindowQuantile(cur, old oracleSnap, q float64) float64 {
	total := cur.count - old.count
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLE, prevD := 0.0, 0.0
	for i := range cur.buckets {
		d := cur.buckets[i].n
		for _, ob := range old.buckets {
			if ob.le == cur.buckets[i].le {
				d -= ob.n
				break
			}
		}
		if d >= rank {
			le := cur.buckets[i].le
			if math.IsInf(le, 1) {
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

// snapOf converts a monitor row ([_count, cumulative counts…, +Inf])
// into the oracle's snapshot.
func snapOf(bounds, row []float64) oracleSnap {
	s := oracleSnap{count: row[0]}
	for i, n := range row[1:] {
		le := math.Inf(1)
		if i < len(bounds) {
			le = bounds[i]
		}
		s.buckets = append(s.buckets, oracleBucket{le, n})
	}
	return s
}

// histogramWith builds a histogram holding exactly counts (overflow
// last) by observing each bucket's upper bound.
func histogramWith(bounds []float64, counts []int64) *Histogram {
	h := NewHistogram(bounds)
	for i, c := range counts {
		v := 2 * bounds[len(bounds)-1]
		if i < len(bounds) {
			v = bounds[i]
		}
		for j := int64(0); j < c; j++ {
			h.Observe(v)
		}
	}
	return h
}

// randomCounts draws a sparse count vector: most buckets empty, a few
// holding up to max observations, now and then none at all.
func randomCounts(rng *rand.Rand, n int, max int64) []int64 {
	c := make([]int64, n)
	if rng.Intn(20) == 0 {
		return c
	}
	for i := range c {
		if rng.Intn(4) == 0 {
			c[i] = rng.Int63n(max + 1)
		}
	}
	return c
}

func cumulative(counts []int64) []float64 {
	out := make([]float64, len(counts))
	c := 0.0
	for i, n := range counts {
		c += float64(n)
		out[i] = c
	}
	return out
}

// TestBucketMathMatchesOracles checks the shared bucket maths against
// the implementations it replaced, bit for bit, over randomized count
// vectors: Histogram.Quantile and MergedQuantile against the old
// Histogram.Quantile and the old re-observing merge, and the monitor's
// window bad fraction against the old delta code — with counter-reset
// rows, where a node restart leaves the newer row below the older one
// in some or all buckets. The window quantile is checked in the same
// loop; see the comment there for the one rounding step it differs by.
func TestBucketMathMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	layouts := [][]float64{SojournBuckets, LoadBuckets, {0.001, 0.01, 0.1, 1}}
	qs := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	windowQ := 0
	for iter := 0; iter < 1200; iter++ {
		bounds := layouts[iter%len(layouts)]
		nb := len(bounds) + 1

		// One histogram, and the same counts split over three.
		counts := randomCounts(rng, nb, 20)
		h := histogramWith(bounds, counts)
		parts := [3][]int64{make([]int64, nb), make([]int64, nb), make([]int64, nb)}
		for i, c := range counts {
			for j := int64(0); j < c; j++ {
				parts[rng.Intn(3)][i]++
			}
		}
		hs := []*Histogram{histogramWith(bounds, parts[0]), histogramWith(bounds, parts[1]), histogramWith(bounds, parts[2])}
		for _, q := range qs {
			if got, want := h.Quantile(q), oracleHistQuantile(bounds, counts, h.Count(), q); got != want {
				t.Fatalf("iter %d: Quantile(%g) = %v, old code %v (counts %v)", iter, q, got, want, counts)
			}
			if got, want := MergedQuantile(q, hs...), oracleMergedQuantile(hs, q); got != want {
				t.Fatalf("iter %d: MergedQuantile(%g) = %v, old merge %v (counts %v)", iter, q, got, want, counts)
			}
		}

		// A window between two monitor rows.
		oldCounts := randomCounts(rng, nb, 1000)
		newCounts := randomCounts(rng, nb, 50)
		oldCum, addCum := cumulative(oldCounts), cumulative(newCounts)
		curCum := make([]float64, nb)
		switch rng.Intn(5) {
		case 0: // every node restarted: the newer row starts from zero
			copy(curCum, addCum)
		case 1: // some restarted: part of the older mass is gone
			keep := rng.Float64()
			for i := range curCum {
				curCum[i] = math.Floor(oldCum[i]*keep) + addCum[i]
			}
		default:
			for i := range curCum {
				curCum[i] = oldCum[i] + addCum[i]
			}
		}
		old := append([]float64{oldCum[nb-1]}, oldCum...)
		cur := append([]float64{curCum[nb-1]}, curCum...)
		thresholds := []float64{bounds[rng.Intn(len(bounds))], bounds[len(bounds)-1] * rng.Float64(), 0.02}
		for _, thr := range thresholds {
			for _, q := range qs {
				m := &Monitor{bounds: bounds, cfg: MonitorConfig{SLO: SLO{Quantile: q, Threshold: thr}}}
				n, bad, gotQ := m.window(cur, old)
				if n != cur[0]-old[0] {
					t.Fatalf("iter %d: window count %v, want %v", iter, n, cur[0]-old[0])
				}
				cs, os := snapOf(bounds, cur), snapOf(bounds, old)
				if want := oracleBadFrac(cs, os, thr); bad != want {
					t.Fatalf("iter %d: bad fraction %v, old code %v (threshold %g)", iter, bad, want, thr)
				}
				// The old window quantile divided before it multiplied
				// in the interpolation step; the shared code rounds that
				// step as Histogram.Quantile always has, so the two agree
				// to within one rounding of the result.
				want := oracleWindowQuantile(cs, os, q)
				if gotQ != want && math.Abs(gotQ-want) > 2*ulp(want) {
					t.Fatalf("iter %d: window quantile(%g) = %v, old code %v", iter, q, gotQ, want)
				}
				windowQ++
			}
		}
	}
	if windowQ < 1000*len(qs) {
		t.Fatalf("only %d window quantiles checked", windowQ)
	}
}

func ulp(x float64) float64 {
	return math.Nextafter(math.Abs(x), math.Inf(1)) - math.Abs(x)
}

// TestWindowRowPolledFasterThanPeriod pins the window lookup of a
// monitor polled faster than its Period (the sojourn-anatomy experiment
// polls every 15 ms against a 360 ms long window under the default 1 s
// Period): the long window still deltas against the newest row at or
// before now − Long, not against whatever a Long/Period-sized ring
// would have kept.
func TestWindowRowPolledFasterThanPeriod(t *testing.T) {
	slo, err := ParseSLO("p99 < 20ms over 90ms/360ms")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(MonitorConfig{URLs: []string{"unused"}, SLO: slo})
	if m.cfg.Period != time.Second {
		t.Fatalf("period %v, want the 1s default", m.cfg.Period)
	}
	bounds := []float64{0.01, 0.1}
	m.bounds = bounds
	t0 := time.Unix(1000, 0)
	const step = 15 * time.Millisecond
	for k := 0; k < 200; k++ {
		now := t0.Add(time.Duration(k) * step)
		// One completion per poll: the row at poll k counts k+1.
		row := m.rows.push(now.UnixNano(), len(bounds)+2)
		for i := range row {
			row[i] = float64(k + 1)
		}
		for _, w := range []time.Duration{slo.Short, slo.Long} {
			old, ok := m.windowRow(now, w)
			if k == 0 {
				if ok {
					t.Fatal("a window exists after one row")
				}
				continue
			}
			n, _, _ := m.window(row, old)
			want := float64(min(k, int(w/step))) // rows at or before now−w, else the oldest
			if n != want {
				t.Fatalf("poll %d: %v window holds %v completions, want %v", k, w, n, want)
			}
		}
	}
}

// TestMomentsMatchDefinition: the one moments helper against a direct
// two-pass computation, and its degenerate cases.
func TestMomentsMatchDefinition(t *testing.T) {
	xs := []float64{3, 7, 7, 19, 0, 4}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	mean, std, vd := Moments(float64(len(xs)), sum, sumsq)
	wantMean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - wantMean) * (x - wantMean)
	}
	wantStd := math.Sqrt(ss / float64(len(xs)))
	if math.Abs(mean-wantMean) > 1e-12 || math.Abs(std-wantStd) > 1e-9 || math.Abs(vd-wantStd/wantMean) > 1e-9 {
		t.Fatalf("Moments = %v %v %v, want %v %v %v", mean, std, vd, wantMean, wantStd, wantStd/wantMean)
	}
	if m, s, v := Moments(0, 0, 0); m != 0 || s != 0 || v != 0 {
		t.Fatalf("empty Moments = %v %v %v", m, s, v)
	}
	// Equal values: the variance is 0 (or cancels below it and clamps).
	if _, s, v := Moments(3, 12, 48); s != 0 || v != 0 {
		t.Fatalf("constant Moments std %v vd %v, want 0", s, v)
	}
	if m, _, v := Moments(2, 0, 0); m != 0 || v != 0 {
		t.Fatalf("zero-mean Moments = %v vd %v", m, v)
	}
}
