package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// DefaultTraceCapacity is the ring capacity Registry.Tracer uses when
// the caller did not seed one explicitly.
const DefaultTraceCapacity = 4096

// Event is one traced protocol event. Op, when nonzero, is the
// balancing-operation id the event belongs to: the initiator mints it,
// the wire carries it on every message, and every process touched by the
// operation tags its events with it — so one operation's cross-node
// timeline can be stitched back together (see ByOp and obs.Aggregate).
type Event struct {
	At     time.Time `json:"at"`
	Node   int       `json:"node"`
	Op     uint64    `json:"op,omitempty"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// Tracer is a bounded ring buffer of recent events: recording never
// blocks progress on allocation or I/O, old events are overwritten once
// the seeded capacity is full, and the buffer can be exported as JSONL
// at any time. A nil tracer no-ops, which is the disabled path.
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total uint64
	// dropped counts ring overwrites: events evicted before anyone
	// exported them. Registry.Tracer surfaces it as trace_dropped_total
	// so /metrics shows when the ring is undersized for the event rate.
	dropped Counter
}

// NewTracer returns a tracer holding the last capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Record appends one event, stamping it with the current time.
func (t *Tracer) Record(node int, kind, detail string) {
	if t == nil {
		return
	}
	t.RecordEvent(Event{At: time.Now(), Node: node, Kind: kind, Detail: detail})
}

// RecordOp appends one event tagged with a balancing-operation id.
func (t *Tracer) RecordOp(node int, op uint64, kind, detail string) {
	if t == nil {
		return
	}
	t.RecordEvent(Event{At: time.Now(), Node: node, Op: op, Kind: kind, Detail: detail})
}

// RecordEvent appends a prepared event (a zero At is stamped now).
func (t *Tracer) RecordEvent(ev Event) {
	if t == nil {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	t.mu.Lock()
	if t.full { // the slot still holds an event nobody drained
		t.dropped.Inc()
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.total++
	t.mu.Unlock()
}

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Value()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// Total returns the number of events ever recorded (buffered or
// already overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// ByOp returns the buffered events carrying the given operation id,
// oldest first. The zero id never matches (it is the "no operation"
// tag), so ByOp(0) returns nil.
func (t *Tracer) ByOp(op uint64) []Event {
	if t == nil || op == 0 {
		return nil
	}
	var out []Event
	for _, ev := range t.Events() {
		if ev.Op == op {
			out = append(out, ev)
		}
	}
	return out
}

// WriteJSONL writes the buffered events oldest-first, one JSON object
// per line. A nil tracer writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return writeJSONL(w, t.Events())
}

// WriteJSONLOp writes only the events of one operation id as JSONL.
func (t *Tracer) WriteJSONLOp(w io.Writer, op uint64) error {
	return writeJSONL(w, t.ByOp(op))
}

func writeJSONL(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w) // Encode appends '\n' per call: JSONL
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
