package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"lmbalance/internal/rng"
)

// None of these tests asserts on a wall-clock value: they check inputs,
// accounting and assembly, and discard every number a run measures.

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	horizon := 2 * time.Second
	a, err := skewSchedule(7, 1, horizon)
	if err != nil {
		t.Fatal(err)
	}
	b, err := skewSchedule(7, 1, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if scheduleDigest(a) != scheduleDigest(b) {
		t.Fatal("the same seed gave two different schedules")
	}
	other, err := skewSchedule(8, 1, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if scheduleDigest(a) == scheduleDigest(other) {
		t.Fatal("a different seed gave the same schedule")
	}
	rung, err := skewSchedule(7, 2, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if scheduleDigest(a) == scheduleDigest(rung) {
		t.Fatal("two rungs share a schedule")
	}
	hot := 0
	for _, j := range a {
		if j.units < 1 || j.units > int(skewDemand.Hi) {
			t.Fatalf("job size %d outside the demand's support", j.units)
		}
		if j.conn == 0 {
			hot++
		}
	}
	if share := float64(hot) / float64(len(a)); math.Abs(share-skewHotShare) > 0.05 {
		t.Fatalf("front-end 0 took %.3f of the jobs, want about %.2f", share, skewHotShare)
	}
}

func TestWorkloadStreamsAreKeyedNotOrdered(t *testing.T) {
	kinds := []rng.StreamKind{streamSkew, streamFirehose, streamStorm, streamSim}
	seen := map[uint64]rng.StreamKind{}
	part := rng.NewPartition(42)
	for _, k := range kinds {
		s := part.Seed(k, idxCluster)
		if prev, dup := seen[s]; dup {
			t.Fatalf("workload streams %d and %d share a key", prev, k)
		}
		seen[s] = k
	}
	// Drawing from another workload's stream must not move this one's.
	before, err := skewSchedule(42, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds[1:] {
		r := part.Stream(k, idxArrivals)
		for i := 0; i < 1000; i++ {
			r.Uint64()
		}
	}
	after, err := skewSchedule(42, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if scheduleDigest(before) != scheduleDigest(after) {
		t.Fatal("another workload's draws shifted the skew schedule")
	}
	if clusterSeed(42, streamStorm, 0) == clusterSeed(42, streamStorm, 1) {
		t.Fatal("two storm runs share a cluster seed")
	}
}

// TestSmokeEveryWorkload runs all four workloads' real assembly at
// smoke sizes, so a refactor that breaks it fails here rather than at
// the next benchmark run.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			c := &runCtx{seed: 5, seconds: 400 * time.Millisecond, sz: smokeSizes, outDir: t.TempDir()}
			line, _, err := runOne(&w, c)
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			for _, m := range endToEnd {
				v, ok := line.Metrics[m.name]
				if !ok {
					t.Fatalf("%s not reported", m.name)
				}
				if v.Unit != m.unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Fatalf("%s = %v %q", m.name, v.Value, v.Unit)
				}
			}
			if len(line.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics reported, want %d", len(line.Metrics), len(endToEnd))
			}
		})
	}
}

// TestSmokeTracedPass drives the wrappers (transport, hooks, client
// spans), the isolated-call timings and the span writer once.
func TestSmokeTracedPass(t *testing.T) {
	w := findWorkload("serve_firehose")
	dir := t.TempDir()
	c := &runCtx{seed: 5, seconds: 600 * time.Millisecond, sz: smokeSizes, outDir: dir, tr: &tracer{}}
	line, _, err := runOne(w, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics reported, want %d", len(line.Metrics), len(perLayer))
	}
	for _, name := range []string{"wire.encode_ns", "cluster.inbox_wait_p50_us", "serve.ingest_handoff_us",
		"serve.queue_p50_ms", "obs.on_off_jobs_ratio", "flight.bytes_per_event", "trace.overhead_ratio", "trace.layer_sum_ratio"} {
		if v := line.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want a measurement", name, v)
		}
	}
	if _, err := os.Stat(dir + "/trace-serve_firehose.jsonl"); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTestTripsEveryCheck(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecMatchesTheProgram keeps BENCHMARK.json and the metric tables
// the program prints from in step.
func TestSpecMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		benchSpec
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the spec, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: spec %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the spec, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end-to-end %d: spec %+v, program %+v", i, m, want)
		}
		if !(m.Bound > 0) || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the spec, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: spec %+v, program %+v", i, m, want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("q1 %v median %v q3 %v", q1, median(xs), q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Fatalf("q1 %v q3 %v", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != 10.5/4 {
		t.Fatalf("spread %v", got)
	}
}

func TestVerdictAppliesTheBound(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{104, 105, 103, 104, 106}, "lower", "same"},
		{[]float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{[]float64{80, 81, 79, 80, 82}, "lower", "same"},
		{[]float64{80, 81, 79, 80, 82}, "higher", "worse"},
		{[]float64{60, 140, 100, 20, 180}, "lower", "unresolved"},
	}
	for _, tc := range cases {
		if got := verdict(base, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", tc.b, tc.better, got, tc.want)
		}
	}
}

func TestLogHistogramQuantiles(t *testing.T) {
	var h lhist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100_000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.04 {
			t.Errorf("q%.2f = %v, want within 4%% of %v", q, got, want)
		}
	}
	if got := h.mean(); math.Abs(got-50_000.5) > 1e-6 {
		t.Errorf("mean %v", got)
	}
	for _, v := range []int64{0, 1, 15, 16, 17, 1023, 1024, 1 << 40} {
		if lo := lhistValue(lhistIndex(v)); math.Abs(lo-float64(v)) > float64(v)/16+1 {
			t.Errorf("value %d lands in a bucket centred on %v", v, lo)
		}
	}
}

func TestTailMeanIsSmoothAcrossBucketEdges(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	// 100 observations: 90 in (1,2], 6 in (2,4], 4 in (4,8].
	counts := []int64{0, 90, 6, 4, 0}
	// Slowest 10 %: the 4 at sqrt(32) and the 6 at sqrt(8).
	want := (4*math.Sqrt(32) + 6*math.Sqrt(8)) / 10
	if got := tailMean(bounds, counts, 0.10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tail mean %v, want %v", got, want)
	}
	// One observation crossing the 4 edge moves the tail mean a little,
	// where the p95 would jump from one bucket to the next.
	moved := tailMean(bounds, []int64{0, 90, 5, 5, 0}, 0.10)
	if moved <= want || moved > want*1.1 {
		t.Fatalf("tail mean moved from %v to %v", want, moved)
	}
	if got := tailMean(bounds, []int64{0, 0, 0, 0, 3}, 0.5); got != 8 {
		t.Fatalf("overflow bucket stands at its lower bound: got %v", got)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	tr := &tracer{}
	root := tr.id()
	tr.add(span{Name: "job", ID: root, Start: 100, End: 200})
	tr.add(span{Name: "a", Parent: root, Start: 90, End: 130})  // clipped to 100..130
	tr.add(span{Name: "b", Parent: root, Start: 120, End: 150}) // overlaps a
	tr.add(span{Name: "c", Parent: root, Start: 180, End: 260}) // clipped to 180..200
	tr.finish()
	if got := tr.spans[0].SelfNS; got != 100-50-20 {
		t.Fatalf("self time %d, want 30", got)
	}
	if got := tr.spans[1].SelfNS; got != 40 {
		t.Fatalf("leaf self time %d, want its duration", got)
	}
}
