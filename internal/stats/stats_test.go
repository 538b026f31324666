package stats

import (
	"math"
	"testing"
	"testing/quick"

	"lmbalance/internal/rng"
)

func almostEqual(a, b, eps float64) bool {
	if math.Abs(a-b) <= eps {
		return true
	}
	// relative comparison for large magnitudes
	return math.Abs(a-b) <= eps*math.Max(math.Abs(a), math.Abs(b))
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Var() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatalf("empty accumulator not all-zero: %v", a.String())
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.N() != 1 || a.Mean() != 3.5 || a.Var() != 0 || a.Min() != 3.5 || a.Max() != 3.5 {
		t.Fatalf("single-sample accumulator wrong: %v", a.String())
	}
}

func TestAccumulatorKnown(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	if a.Var() != 4 {
		t.Fatalf("population variance = %v, want 4", a.Var())
	}
	if a.Std() != 2 {
		t.Fatalf("std = %v, want 2", a.Std())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
	if vd := a.VariationDensity(); vd != 0.4 {
		t.Fatalf("variation density = %v, want 0.4", vd)
	}
}

// TestWelfordMatchesNaive cross-checks the streaming implementation against
// the two-pass textbook formulas on random data.
func TestWelfordMatchesNaive(t *testing.T) {
	r := rng.New(101)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		var a Accumulator
		for i := range xs {
			xs[i] = r.FloatRange(-100, 100)
			a.Add(xs[i])
		}
		mean := MeanOf(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		if !almostEqual(a.Mean(), mean, 1e-9) {
			t.Fatalf("trial %d: mean %v vs %v", trial, a.Mean(), mean)
		}
		if !almostEqual(a.Var(), ss/float64(n), 1e-9) {
			t.Fatalf("trial %d: var %v vs %v", trial, a.Var(), ss/float64(n))
		}
	}
}

// TestMergeEquivalence is the key property for parallel runs: splitting a
// sample set arbitrarily, accumulating the parts, and merging must give the
// same result as accumulating the whole.
func TestMergeEquivalence(t *testing.T) {
	r := rng.New(202)
	prop := func(seed uint32, splitRaw uint8) bool {
		rr := rng.New(uint64(seed))
		n := 2 + rr.Intn(100)
		split := 1 + int(splitRaw)%(n-1)
		var whole, left, right Accumulator
		for i := 0; i < n; i++ {
			x := rr.FloatRange(-50, 50)
			whole.Add(x)
			if i < split {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(&right)
		return almostEqual(whole.Mean(), left.Mean(), 1e-9) &&
			almostEqual(whole.Var(), left.Var(), 1e-9) &&
			whole.Min() == left.Min() && whole.Max() == left.Max() &&
			whole.N() == left.N()
	}
	_ = r
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeWithEmpty(t *testing.T) {
	var a, empty Accumulator
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(&empty)
	if a != before {
		t.Fatal("merging empty changed accumulator")
	}
	empty.Merge(&a)
	if empty.Mean() != 2 || empty.N() != 2 {
		t.Fatal("merging into empty lost data")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeriesStride(3, 1)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// run 1
	s.Add(0, 1)
	s.Add(1, 2)
	s.Add(2, 3)
	// run 2
	s.Add(0, 3)
	s.Add(1, 2)
	s.Add(2, 1)
	means := s.Means()
	if means[0] != 2 || means[1] != 2 || means[2] != 2 {
		t.Fatalf("means = %v", means)
	}
	if mins := s.Mins(); mins[0] != 1 || mins[2] != 1 {
		t.Fatalf("mins = %v", mins)
	}
	if maxs := s.Maxs(); maxs[0] != 3 || maxs[2] != 3 {
		t.Fatalf("maxs = %v", maxs)
	}
}

func TestSeriesMerge(t *testing.T) {
	a, b := NewSeriesStride(2, 1), NewSeriesStride(2, 1)
	a.Add(0, 1)
	a.Add(1, 5)
	b.Add(0, 3)
	b.Add(1, 7)
	a.Merge(b)
	if a.At(0).Mean() != 2 || a.At(1).Mean() != 6 {
		t.Fatalf("merged means wrong: %v %v", a.At(0).Mean(), a.At(1).Mean())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched lengths did not panic")
		}
	}()
	a.Merge(NewSeriesStride(3, 1))
}

func TestVariationDensityZeroMean(t *testing.T) {
	var a Accumulator
	a.Add(-1)
	a.Add(1)
	if a.VariationDensity() != 0 {
		t.Fatal("VD with zero mean should be defined as 0")
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i & 1023))
	}
}

func BenchmarkSeriesAdd(b *testing.B) {
	s := NewSeriesStride(500, 1)
	for i := 0; i < b.N; i++ {
		s.Add(i%500, float64(i&255))
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeriesStride(0, 1)
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if len(s.Means()) != 0 || len(s.Mins()) != 0 || len(s.Maxs()) != 0 {
		t.Fatal("empty series produced non-empty slices")
	}
	s.Merge(NewSeriesStride(0, 1)) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("merging series of different lengths should panic")
		}
	}()
	s.Merge(NewSeriesStride(1, 1))
}

func TestSeriesSingleStep(t *testing.T) {
	s := NewSeriesStride(1, 1)
	s.Add(0, 2.5)
	if got := s.At(0).Mean(); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
	if s.Means()[0] != 2.5 || s.Mins()[0] != 2.5 || s.Maxs()[0] != 2.5 {
		t.Fatal("single-step projections wrong")
	}
}

func TestMeanOfEdge(t *testing.T) {
	if MeanOf(nil) != 0 {
		t.Fatal("MeanOf(nil) should be 0")
	}
	if MeanOf([]float64{3}) != 3 {
		t.Fatal("MeanOf of one element should be that element")
	}
}
