package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// JourneySample is one completed job's journey, as sampled into the
// /jobs ring. Timestamps are server-side unix nanos. Sojourn is the
// job's end-to-end time (submit → last unit done); the component
// fields are per-unit means over the job's units of the decomposition
// cluster.Journey.Parts defines, which sums to the unit's own sojourn.
// Hops is the maximum hop count any of the job's units took.
// Jobs whose units carried no stamps (a JobRef built without them) have
// zero component fields and Stamped false.
type JourneySample struct {
	Node       int     `json:"node"`
	Job        uint64  `json:"job"` // origin-local id
	Tag        uint64  `json:"tag"` // the client's id for the job
	Units      int     `json:"units"`
	Hops       int     `json:"hops"`
	SubmitNS   int64   `json:"submit_ns"`
	DoneNS     int64   `json:"done_ns"`
	Sojourn    float64 `json:"sojourn_s"`
	IngestWait float64 `json:"ingest_wait_s"`
	Queue      float64 `json:"queue_s"`
	Transfer   float64 `json:"transfer_s"`
	Service    float64 `json:"service_s"`
	Stamped    bool    `json:"stamped"`
}

// JourneyLog is a fixed-capacity ring of recently completed journeys,
// the store behind the /jobs debug endpoint — JSONL export, newest
// overwrites oldest.
type JourneyLog struct {
	mu    sync.Mutex
	buf   []JourneySample
	next  int
	total int64
}

// DefaultJourneyCapacity is the ring size NewServer uses.
const DefaultJourneyCapacity = 256

// NewJourneyLog returns a ring holding the last capacity samples
// (capacity < 1 falls back to DefaultJourneyCapacity).
func NewJourneyLog(capacity int) *JourneyLog {
	if capacity < 1 {
		capacity = DefaultJourneyCapacity
	}
	return &JourneyLog{buf: make([]JourneySample, 0, capacity)}
}

// Add records one completed journey.
func (l *JourneyLog) Add(s JourneySample) {
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, s)
	} else {
		l.buf[l.next] = s
		l.next = (l.next + 1) % cap(l.buf)
	}
	l.total++
	l.mu.Unlock()
}

// Total returns the number of journeys ever added (not just retained).
func (l *JourneyLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the retained samples, oldest first.
func (l *JourneyLog) Snapshot() []JourneySample {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]JourneySample, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// JourneysHandler serves the merged journeys of one or more logs as
// JSONL ordered by completion time — the /jobs debug endpoint. With
// several logs (one per node in a spawned cluster) the merge is a
// cluster-wide view of recent completions.
func JourneysHandler(logs ...*JourneyLog) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var all []JourneySample
		for _, l := range logs {
			if l != nil {
				all = append(all, l.Snapshot()...)
			}
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].DoneNS < all[j].DoneNS })
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		enc := json.NewEncoder(w)
		for _, s := range all {
			if enc.Encode(s) != nil {
				return
			}
		}
	}
}
