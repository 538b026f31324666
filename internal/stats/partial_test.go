package stats

import (
	"testing"

	"lmbalance/internal/rng"
)

func observeAll(p *LoadPartial, loads []int) {
	for _, v := range loads {
		p.Observe(v)
	}
}

func TestLoadPartialBasic(t *testing.T) {
	var p LoadPartial
	if p.Mean() != 0 {
		t.Fatal("empty partial mean should be 0")
	}
	observeAll(&p, []int{3, -1, 4, 1, 5})
	if p.Sum != 12 || p.Min != -1 || p.Max != 5 || p.Count != 5 {
		t.Fatalf("partial = %+v", p)
	}
	if got := p.Mean(); got != 12.0/5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestLoadPartialMergeIdentity(t *testing.T) {
	var a, b LoadPartial
	observeAll(&b, []int{2, 7})
	a.Merge(LoadPartial{}) // empty right identity
	if a.Count != 0 {
		t.Fatal("merging empty into empty changed state")
	}
	a.Merge(b)
	if a != b {
		t.Fatalf("empty left identity broken: %+v vs %+v", a, b)
	}
	a.Merge(LoadPartial{})
	if a != b {
		t.Fatal("empty right identity broken")
	}
}

// TestLoadPartialMergeOrderIndependence is the property the sharded
// engine's tree reduction relies on: any merge order over disjoint shard
// partials yields the same result as the direct global scan.
func TestLoadPartialMergeOrderIndependence(t *testing.T) {
	r := rng.New(42)
	loads := make([]int, 1000)
	for i := range loads {
		loads[i] = r.Intn(100) - 20
	}
	var direct LoadPartial
	observeAll(&direct, loads)

	for trial := 0; trial < 50; trial++ {
		// Random partition into 1..16 contiguous shards.
		nShards := 1 + r.Intn(16)
		cuts := append([]int{0}, r.SampleDistinct(len(loads)-1, nShards-1, -1, nil)...)
		for i := range cuts[1:] {
			cuts[i+1]++ // interior cut points in [1, len)
		}
		cuts = append(cuts, len(loads))
		sortInts(cuts)
		parts := make([]LoadPartial, 0, nShards)
		for s := 0; s+1 < len(cuts); s++ {
			var p LoadPartial
			observeAll(&p, loads[cuts[s]:cuts[s+1]])
			parts = append(parts, p)
		}
		// Shuffle the partials: merge order must not matter.
		r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		if got := ReduceLoadPartials(parts); got != direct {
			t.Fatalf("trial %d: reduced %+v, direct %+v", trial, got, direct)
		}
	}
}

func TestReduceLoadPartialsShapes(t *testing.T) {
	if got := ReduceLoadPartials(nil); got != (LoadPartial{}) {
		t.Fatal("empty reduce should be zero partial")
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31} {
		parts := make([]LoadPartial, n)
		var want LoadPartial
		for i := range parts {
			parts[i].Observe(i * i)
			want.Observe(i * i)
		}
		if got := ReduceLoadPartials(parts); got != want {
			t.Fatalf("n=%d: got %+v want %+v", n, got, want)
		}
	}
}

// TestAccumulatorMergeOrderIndependence checks the statistics the engine
// reports (n, mean, min, max — and variance within floating-point slack)
// are independent of the order per-run accumulators merge in.
func TestAccumulatorMergeOrderIndependence(t *testing.T) {
	r := rng.New(7)
	const groups = 9
	samples := make([][]float64, groups)
	for g := range samples {
		for k := 0; k < 20+r.Intn(30); k++ {
			samples[g] = append(samples[g], r.Float64()*100-50)
		}
	}
	merged := func(order []int) Accumulator {
		var acc Accumulator
		for _, g := range order {
			var part Accumulator
			for _, x := range samples[g] {
				part.Add(x)
			}
			acc.Merge(&part)
		}
		return acc
	}
	order := make([]int, groups)
	for i := range order {
		order[i] = i
	}
	ref := merged(order)
	for trial := 0; trial < 30; trial++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got := merged(order)
		if got.N() != ref.N() || got.Min() != ref.Min() || got.Max() != ref.Max() {
			t.Fatalf("trial %d: counts/extrema differ: %v vs %v", trial, got, ref)
		}
		if d := got.Mean() - ref.Mean(); d > 1e-9 || d < -1e-9 {
			t.Fatalf("trial %d: mean %v vs %v", trial, got.Mean(), ref.Mean())
		}
		if d := got.Var() - ref.Var(); d > 1e-6 || d < -1e-6 {
			t.Fatalf("trial %d: var %v vs %v", trial, got.Var(), ref.Var())
		}
	}
}

// TestSeriesMergeOrderIndependence extends the property to whole Series,
// including strided ones.
func TestSeriesMergeOrderIndependence(t *testing.T) {
	r := rng.New(11)
	const steps, stride, runs = 40, 4, 6
	runData := make([][]float64, runs)
	for run := range runData {
		runData[run] = make([]float64, steps)
		for tt := range runData[run] {
			runData[run][tt] = r.Float64() * 10
		}
	}
	build := func(order []int) *Series {
		total := NewSeriesStride(steps, stride)
		for _, run := range order {
			s := NewSeriesStride(steps, stride)
			for tt := 0; tt < steps; tt++ {
				if s.Sampled(tt) {
					s.Add(tt, runData[run][tt])
				}
			}
			total.Merge(s)
		}
		return total
	}
	order := []int{0, 1, 2, 3, 4, 5}
	ref := build(order)
	for trial := 0; trial < 20; trial++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got := build(order)
		for tt := 0; tt < steps; tt++ {
			if !got.Sampled(tt) {
				continue
			}
			if got.At(tt).Min() != ref.At(tt).Min() || got.At(tt).Max() != ref.At(tt).Max() {
				t.Fatalf("trial %d step %d: extrema differ", trial, tt)
			}
			if d := got.At(tt).Mean() - ref.At(tt).Mean(); d > 1e-9 || d < -1e-9 {
				t.Fatalf("trial %d step %d: mean %v vs %v", trial, tt, got.At(tt).Mean(), ref.At(tt).Mean())
			}
		}
	}
}

func TestSeriesStride(t *testing.T) {
	s := NewSeriesStride(10, 3)
	if s.Len() != 10 || s.Stride() != 3 {
		t.Fatalf("len %d stride %d", s.Len(), s.Stride())
	}
	// Sampled steps: (t+1)%3 == 0 → t = 2, 5, 8.
	want := map[int]bool{2: true, 5: true, 8: true}
	for tt := 0; tt < 10; tt++ {
		if s.Sampled(tt) != want[tt] {
			t.Fatalf("Sampled(%d) = %v", tt, s.Sampled(tt))
		}
	}
	s.Add(2, 1.0)
	s.Add(5, 2.0)
	s.Add(8, 3.0)
	if s.At(2).Mean() != 1 || s.At(5).Mean() != 2 || s.At(8).Mean() != 3 {
		t.Fatal("strided slots mis-addressed")
	}
	// Mismatched shapes must panic on merge.
	defer func() {
		if recover() == nil {
			t.Fatal("merging different strides did not panic")
		}
	}()
	s.Merge(NewSeriesStride(10, 5))
}

// sortInts is a tiny insertion sort to avoid importing sort for one call.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
