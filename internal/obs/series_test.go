package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestRecorderColumnsAndSample(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("load")
	c := reg.Counter("ops_total")
	h := reg.Histogram("lat", []float64{1, 10})

	rec := NewRecorder(4).
		GaugeColumn("load", g).
		Column("ops_total", func() float64 { return float64(c.Value()) }).
		HistogramColumns("lat", h)

	wantCols := []string{"load", "ops_total", "lat_mean", "lat_std", "lat_vd"}
	if got := rec.Data().Columns; len(got) != len(wantCols) {
		t.Fatalf("Columns = %v, want %v", got, wantCols)
	} else {
		for i := range wantCols {
			if got[i] != wantCols[i] {
				t.Fatalf("Columns = %v, want %v", got, wantCols)
			}
		}
	}

	g.Set(5)
	c.Add(3)
	h.Observe(2)
	h.Observe(4)
	rec.Sample()
	g.Set(9)
	rec.Sample()

	if len(rec.Data().Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(rec.Data().Samples))
	}
	s := rec.Data().Samples
	if len(s) != 2 {
		t.Fatalf("Samples = %d rows", len(s))
	}
	if s[0].V[0] != 5 || s[1].V[0] != 9 {
		t.Fatalf("gauge column = %v / %v, want 5 / 9", s[0].V[0], s[1].V[0])
	}
	if s[0].V[1] != 3 {
		t.Fatalf("counter column = %v, want 3", s[0].V[1])
	}
	if s[0].V[2] != 3 { // mean of {2,4}
		t.Fatalf("lat_mean = %v, want 3", s[0].V[2])
	}
	if s[0].AtUS == 0 || s[1].AtUS < s[0].AtUS {
		t.Fatalf("timestamps not monotone: %d then %d", s[0].AtUS, s[1].AtUS)
	}
}

func TestRecorderRateColumn(t *testing.T) {
	var v float64
	rec := NewRecorder(8).RateColumn("rate", func() float64 { return v })
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

	v = 10
	rec.sampleAt(base) // first sample: no baseline → 0
	v = 30
	rec.sampleAt(base.Add(2 * time.Second)) // +20 over 2 s → 10/s
	v = 30
	rec.sampleAt(base.Add(3 * time.Second)) // flat → 0/s

	s := rec.Data().Samples
	if s[0].V[0] != 0 || s[1].V[0] != 10 || s[2].V[0] != 0 {
		t.Fatalf("rate column = %v %v %v, want 0 10 0", s[0].V[0], s[1].V[0], s[2].V[0])
	}
}

// TestRecorderRingWraparound overfills the ring and checks the survivors
// are exactly the newest samples, oldest first.
func TestRecorderRingWraparound(t *testing.T) {
	var v float64
	rec := NewRecorder(4).Column("v", func() float64 { return v })
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		v = float64(i)
		rec.sampleAt(base.Add(time.Duration(i) * time.Second))
	}
	if len(rec.Data().Samples) != 4 {
		t.Fatalf("samples = %d, want 4", len(rec.Data().Samples))
	}
	s := rec.Data().Samples
	for i, want := range []float64{6, 7, 8, 9} {
		if s[i].V[0] != want {
			t.Fatalf("sample %d = %v, want %v (all: %+v)", i, s[i].V[0], want, s)
		}
	}
}

// Declaring a column after sampling resets the ring: rows of different
// widths cannot coexist.
func TestRecorderColumnChangeResets(t *testing.T) {
	rec := NewRecorder(4).Column("a", func() float64 { return 1 })
	rec.Sample()
	rec.Sample()
	rec.Column("b", func() float64 { return 2 })
	if len(rec.Data().Samples) != 0 {
		t.Fatalf("samples after column change = %d, want 0", len(rec.Data().Samples))
	}
	rec.Sample()
	s := rec.Data().Samples
	if len(s) != 1 || len(s[0].V) != 2 || s[0].V[1] != 2 {
		t.Fatalf("post-reset samples = %+v", s)
	}
}

// sampled returns a column that signals every sample it is read for,
// and a wait for n such signals, so a test waits on recorder rows, not
// on the clock.
func sampled(t *testing.T) (func() float64, func(n int)) {
	ch := make(chan struct{}, 1)
	col := func() float64 {
		select {
		case ch <- struct{}{}:
		default:
		}
		return 1
	}
	wait := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatalf("sampler stalled with %d samples to go", n)
			}
		}
	}
	return col, wait
}

func TestRecorderStartStop(t *testing.T) {
	col, wait := sampled(t)
	rec := NewRecorder(64).Column("v", col)
	rec.Start(time.Millisecond)
	wait(4) // the fourth read begins after the third row is stored
	if len(rec.Data().Samples) < 3 {
		t.Fatalf("background sampler recorded %d samples", len(rec.Data().Samples))
	}
	// Restart replaces the schedule rather than stacking goroutines,
	// however concurrent Starts and Stops interleave: after the last
	// Stop no loop is left sampling.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec.Start(time.Millisecond)
			if i%2 == 0 {
				rec.Stop()
			}
		}(i)
	}
	wg.Wait()
	rec.Stop()
	rec.Stop() // idempotent
	n := len(rec.Data().Samples)
	// A witness recorder on the same period: twenty of its rows span
	// twenty periods in which a leftover loop would have sampled.
	wcol, wwait := sampled(t)
	witness := NewRecorder(64).Column("w", wcol)
	witness.Start(time.Millisecond)
	wwait(20)
	witness.Stop()
	if len(rec.Data().Samples) != n {
		t.Fatalf("recorder kept sampling after Stop: %d → %d", n, len(rec.Data().Samples))
	}
}

func TestSeriesDataJSON(t *testing.T) {
	var nilRec *Recorder
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(nilRec.Data()); err != nil {
		t.Fatal(err)
	}
	var d SeriesData
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("nil recorder JSON invalid: %v\n%s", err, buf.String())
	}
	if d.Columns == nil || d.Samples == nil {
		t.Fatalf("nil recorder should marshal empty arrays, got %s", buf.String())
	}

	rec := NewRecorder(4).Column("x", func() float64 { return 1.5 })
	rec.Sample()
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(rec.Data()); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Columns) != 1 || d.Columns[0] != "x" || len(d.Samples) != 1 || d.Samples[0].V[0] != 1.5 {
		t.Fatalf("series JSON = %s", buf.String())
	}

	// Nil-receiver no-ops across the rest of the surface.
	nilRec.Sample()
	nilRec.Start(time.Millisecond)
	nilRec.Stop()
	if d := nilRec.Data(); len(d.Columns) != 0 || len(d.Samples) != 0 {
		t.Fatal("nil recorder should be inert")
	}
}

// Registry plumbing: SetRecorder is what ServeDebug's /series reads.
func TestRegistryRecorderAttach(t *testing.T) {
	reg := NewRegistry()
	if reg.Recorder() != nil {
		t.Fatal("Recorder should not be auto-created")
	}
	rec := NewRecorder(4)
	reg.SetRecorder(rec)
	if reg.Recorder() != rec {
		t.Fatal("SetRecorder/Recorder mismatch")
	}
	var nilReg *Registry
	if nilReg.Recorder() != nil {
		t.Fatal("nil registry Recorder should be nil")
	}
	nilReg.SetRecorder(rec) // must not panic
}
