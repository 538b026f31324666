package obs

import (
	"sync"
	"time"
)

// DefaultSeriesCapacity is the ring capacity NewRecorder uses when the
// caller does not size one explicitly.
const DefaultSeriesCapacity = 1024

// Recorder is the time-series side of the observability layer: a
// fixed-capacity ring of periodic snapshots over caller-selected
// sources — gauges, histogram moments (mean/std/VD), per-second
// counter rates, any func of the caller's. Where a Histogram answers "what is the
// distribution so far", the recorder answers "how did it get there":
// the paper's §5 claim is that the variation density converges *in t*,
// and only a trajectory can show that.
//
// Columns are declared up front (Column and the typed helpers); Sample
// then appends one row — one float64 per column plus a timestamp — and
// Start runs Sample on a background ticker. Old rows are overwritten
// once the ring is full, so a recorder never grows; recording never
// allocates beyond the preallocated ring. All methods no-op on a nil
// receiver, matching the rest of the package's disabled path.
type Recorder struct {
	mu     sync.Mutex
	cols   []seriesColumn
	rows   ring          // each row has len(cols) values
	period time.Duration // last Start period (0 before Start)
	loop   tickLoop
}

// seriesColumn is one recorded source. For rate columns the sampled
// value is the per-second increase of fn since the previous sample.
type seriesColumn struct {
	name string
	fn   func() float64
	rate *counterRate // nil for a plain column
}

// NewRecorder returns a recorder holding the last capacity samples
// (DefaultSeriesCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &Recorder{rows: newRing(capacity)}
}

// ring is a fixed-capacity buffer of timestamped rows, the oldest
// overwritten first: the Recorder's samples and the health Monitor's
// window snapshots are both kept in one.
type ring struct {
	at   []int64 // unix nanoseconds, parallel to rows
	rows [][]float64
	next int
	full bool
}

func newRing(capacity int) ring {
	return ring{at: make([]int64, capacity), rows: make([][]float64, capacity)}
}

// push appends a row of width values stamped atNS and returns it for
// the caller to fill; it reuses the storage of the row it overwrites.
func (r *ring) push(atNS int64, width int) []float64 {
	row := r.rows[r.next]
	if cap(row) < width {
		row = make([]float64, width)
	}
	row = row[:width]
	r.at[r.next], r.rows[r.next] = atNS, row
	if r.next++; r.next == len(r.rows) {
		r.next, r.full = 0, true
	}
	return row
}

func (r *ring) len() int {
	if r.full {
		return len(r.rows)
	}
	return r.next
}

// row returns the i-th oldest row and its stamp.
func (r *ring) row(i int) (atNS int64, row []float64) {
	if r.full {
		i = (r.next + i) % len(r.rows)
	}
	return r.at[i], r.rows[i]
}

// reset drops every row.
func (r *ring) reset() {
	r.next, r.full = 0, false
	clear(r.rows)
}

// lookback returns the index of the row a window ending at the newest
// row deltas against: the newest older row stamped at or before cutNS,
// or the oldest row while none is that old. ok is false until the ring
// holds two rows.
func (r *ring) lookback(cutNS int64) (i int, ok bool) {
	n := r.len()
	if n < 2 {
		return 0, false
	}
	for i = n - 2; i >= 0; i-- {
		if at, _ := r.row(i); at <= cutNS {
			return i, true
		}
	}
	return 0, true
}

// counterRate turns successive readings of a cumulative counter into
// per-second rates: a Recorder rate column and the Monitor's per-node
// abort rate.
type counterRate struct {
	prev   float64
	prevUS int64 // unix microseconds of the previous reading; 0 = none
}

// next records v read at nowUS and returns its per-second increase
// since the previous reading; ok is false for the first reading or a
// clock that did not advance.
func (c *counterRate) next(v float64, nowUS int64) (rate float64, ok bool) {
	if c.prevUS != 0 && nowUS > c.prevUS {
		rate, ok = (v-c.prev)/(float64(nowUS-c.prevUS)/1e6), true
	}
	c.prev, c.prevUS = v, nowUS
	return rate, ok
}

// tickLoop calls a function on a background ticker until halted: the
// one loop behind Recorder.Start and Monitor.Start.
type tickLoop struct {
	mu   sync.Mutex
	stop func() // ends the running loop and waits for it; nil when none runs
}

// start calls fn with every tick's time, once per period, replacing
// (and waiting out) any loop already running.
func (l *tickLoop) start(period time.Duration, fn func(time.Time)) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case t := <-tick.C:
				fn(t)
			case <-stop:
				return
			}
		}
	}()
	l.swap(func() { close(stop); <-done })
}

// halt stops the loop (a no-op when none runs) and waits for it to exit.
func (l *tickLoop) halt() { l.swap(nil) }

// swap installs next as the running loop's stopper and stops the one it
// replaces, outside the lock: each loop is stopped exactly once however
// start and halt interleave.
func (l *tickLoop) swap(next func()) {
	l.mu.Lock()
	prev := l.stop
	l.stop = next
	l.mu.Unlock()
	if prev != nil {
		prev()
	}
}

// Column declares one sampled source. Declare every column before the
// first Sample/Start: changing the column set afterwards resets the
// ring (rows of a different width cannot be compared).
func (r *Recorder) Column(name string, fn func() float64) *Recorder {
	return r.addColumn(seriesColumn{name: name, fn: fn})
}

// RateColumn declares a source recorded as a per-second rate: each
// sample stores (fn − previous fn) / elapsed seconds. The first sample
// of a rate column is 0 (no baseline yet). Use it to turn cumulative
// counters — e.g. per-reason abort totals — into abort *rates* over the
// run.
func (r *Recorder) RateColumn(name string, fn func() float64) *Recorder {
	return r.addColumn(seriesColumn{name: name, fn: fn, rate: &counterRate{}})
}

func (r *Recorder) addColumn(c seriesColumn) *Recorder {
	if r == nil || c.fn == nil {
		return r
	}
	r.mu.Lock()
	r.cols = append(r.cols, c)
	r.rows.reset()
	r.mu.Unlock()
	return r
}

// GaugeColumn records a gauge's instantaneous value.
func (r *Recorder) GaugeColumn(name string, g *Gauge) *Recorder {
	return r.Column(name, func() float64 { return float64(g.Value()) })
}

// CounterRateColumn records a counter as a per-second rate.
func (r *Recorder) CounterRateColumn(name string, c *Counter) *Recorder {
	return r.RateColumn(name, func() float64 { return float64(c.Value()) })
}

// HistogramColumns records a histogram's online moments — mean, std
// and the paper's variation density — as three columns named
// base_mean, base_std, base_vd.
func (r *Recorder) HistogramColumns(base string, h *Histogram) *Recorder {
	r.Column(base+"_mean", h.Mean)
	r.Column(base+"_std", h.Std)
	r.Column(base+"_vd", h.VD)
	return r
}

// Sample takes one snapshot of every column now.
func (r *Recorder) Sample() {
	if r == nil {
		return
	}
	r.sampleAt(time.Now())
}

func (r *Recorder) sampleAt(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	row := r.rows.push(now.UnixNano(), len(r.cols))
	for i, c := range r.cols {
		v := c.fn()
		if c.rate != nil {
			v, _ = c.rate.next(v, now.UnixMicro())
		}
		row[i] = v
	}
}

// Start samples every period on a background goroutine until Stop.
// A second Start replaces the previous schedule. Period <= 0 selects
// 100 ms.
func (r *Recorder) Start(period time.Duration) {
	if r == nil {
		return
	}
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	r.mu.Lock()
	r.period = period
	r.mu.Unlock()
	r.loop.start(period, r.sampleAt)
}

// Stop halts background sampling (idempotent; buffered samples stay
// readable) and waits for the sampling goroutine to exit.
func (r *Recorder) Stop() {
	if r == nil {
		return
	}
	r.loop.halt()
}

// SeriesSample is one buffered snapshot: a timestamp plus one value per
// column, in column order.
type SeriesSample struct {
	AtUS int64     `json:"at_us"` // unix microseconds
	V    []float64 `json:"v"`
}

// SeriesData is the JSON document /series serves and Aggregate
// consumes: the column names, the sampling period, and the samples
// oldest first.
type SeriesData struct {
	Columns  []string       `json:"columns"`
	PeriodMS float64        `json:"period_ms"`
	Samples  []SeriesSample `json:"samples"`
}

// Data snapshots the recorder as a SeriesData document, samples oldest
// first and copied, safe to hold across further sampling. A nil
// recorder yields an empty document (non-nil slices, so it marshals as
// [] not null).
func (r *Recorder) Data() SeriesData {
	d := SeriesData{Columns: []string{}, Samples: []SeriesSample{}}
	if r == nil {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.cols {
		d.Columns = append(d.Columns, c.name)
	}
	for i := 0; i < r.rows.len(); i++ {
		at, row := r.rows.row(i)
		d.Samples = append(d.Samples, SeriesSample{AtUS: at / 1e3, V: append([]float64(nil), row...)})
	}
	d.PeriodMS = float64(r.period) / float64(time.Millisecond)
	return d
}
