package flight

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

const (
	// DefaultMaxBytes bounds the whole segment ring on disk (Options
	// MaxBytes left zero).
	DefaultMaxBytes = 8 << 20
	// minSegBytes floors the per-segment size so rotation stays rare.
	minSegBytes = 4096
	// flushBytes is how much a recorder buffers before it writes to the
	// segment file: the records a killed process can lose.
	flushBytes = 32 << 10
)

// Options configures a Recorder.
type Options struct {
	// Dir is the recording directory (created if missing). One node per
	// directory; multi-node recordings use one subdirectory per node
	// (see LoadTree). Empty keeps the ring in memory: the same segments,
	// held as byte slices, read back by Load and never snapshotted.
	Dir string
	// Node is the recording node's cluster id.
	Node int
	// MaxBytes bounds the segment ring (0 = DefaultMaxBytes); a segment
	// rotates at MaxBytes/8, floored at minSegBytes. Snapshots are
	// preserved copies and do not count against it.
	MaxBytes int64
	// Buffer is ignored: every record is written on the call that
	// records it, so there is no queue to size.
	Buffer int
}

// Recorder is one node's flight recorder: a ring of segments, on disk
// under Options.Dir or in memory without one. Every record carries its
// driver's clock: each recording method takes now, the time the node
// acted on — unix nanoseconds under cmd/lbnode and the TCP cluster, the
// virtual tick under netsim — and a record is never stamped before the
// one ahead of it. The recorder reads no clock of its own.
//
// Each recording call frames its record onto a buffer the recorder owns,
// on the calling goroutine, under mu; the buffer is written to the
// current segment every flushBytes and when the segment is sealed.
// Nothing queues, so nothing is dropped unless a write fails: then the
// open segment's records count as dropped, the torn segment is deleted
// and the next record opens a fresh one. A node records from its one
// driver goroutine, so mu is contended only by a Snapshot or Close,
// which hold the node for as long as they take. A nil *Recorder is the
// disabled path, like a nil *obs.Registry: every method is a no-op.
type Recorder struct {
	opts     Options
	segBytes int64 // rotation threshold

	records   obs.Counter
	bytes     obs.Counter
	dropped   obs.Counter
	sealed    obs.Counter
	snapshots obs.Counter

	mu        sync.Mutex // guards everything below
	closed    bool
	last      int64 // the latest stamp recorded; stamps never regress
	lastErr   error
	tail      []byte // the record being recorded, before framing
	buf       []byte // framed records of the open segment not yet written
	w         *segWriter
	segSeq    uint64
	lastWall  int64
	live      []liveSeg
	liveBytes int64
	snapSeq   int
}

// liveSeg is one segment of the ring: a file at path, or in memory (no
// path) the bytes in data.
type liveSeg struct {
	seq   uint64
	path  string
	bytes int64
	data  []byte
}

// segWriter is the open, current segment, written from the recorder's
// buf to its file f, or in memory to mem.
type segWriter struct {
	f       *os.File
	mem     []byte
	path    string
	seq     uint64
	bytes   int64
	records int64 // written or buffered
}

// Open creates (or resumes) a recording directory, or with an empty
// Options.Dir a recording in memory. Existing segments in the directory
// are kept, counted against the ring budget, and extended — a restarted
// daemon appends to its ring rather than clobbering the incident
// evidence it just wrote.
func Open(o Options) (*Recorder, error) {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	r := &Recorder{opts: o, segBytes: max(o.MaxBytes/8, minSegBytes)}
	if o.Dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	// Resume: adopt segments already in the ring.
	segs, err := listSegments(o.Dir)
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		r.live = append(r.live, s)
		r.liveBytes += s.bytes
		if s.seq >= r.segSeq {
			r.segSeq = s.seq + 1
		}
	}
	return r, nil
}

// Dir returns the recording directory ("" in memory or on a nil
// recorder).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.opts.Dir
}

// Err returns the first write error the recorder hit (nil if none): it
// keeps recording after an I/O error — recording must never take the
// cluster down — but the failure is not silent.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Register attaches the recorder's counters to an obs registry under
// the flight_* namespace, labeled with the node id.
func (r *Recorder) Register(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	n := fmt.Sprintf("node=\"%d\"", r.opts.Node)
	reg.Attach(fmt.Sprintf("flight_records_total{%s}", n), &r.records)
	reg.Attach(fmt.Sprintf("flight_bytes_total{%s}", n), &r.bytes)
	reg.Attach(fmt.Sprintf("flight_dropped_total{%s}", n), &r.dropped)
	reg.Attach(fmt.Sprintf("flight_segments_sealed_total{%s}", n), &r.sealed)
	reg.Attach(fmt.Sprintf("flight_snapshots_total{%s}", n), &r.snapshots)
}

// Dropped returns the number of records lost because writing them, or a
// segment they shared, failed (see Err).
func (r *Recorder) Dropped() int64 { return r.dropped.Value() }

// Records returns the number of records accepted for writing.
func (r *Recorder) Records() int64 { return r.records.Value() }

// put stamps the record r.tail holds at now, or at the previous
// record's stamp if that is later, and writes it into the current
// segment. The caller holds mu. A closed recorder drops the record
// silently.
func (r *Recorder) put(now int64, dir Dir) {
	if r.closed {
		return
	}
	r.last = max(now, r.last)
	r.records.Add(1)
	if err := r.write(r.last, dir, r.tail); err != nil {
		r.fail(err)
		r.dropped.Add(1)
	}
}

// RecordSend records one frame this node sent to peer `to` at now.
func (r *Recorder) RecordSend(now int64, to int, m wire.Msg) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tail = appendTailSend(r.tail[:0], to, m)
	r.put(now, DirSend)
}

// RecordRecv records one frame this node is about to process. The node
// calls it where it acts on the frame, so receives land in the stream in
// processing order among its sends and decisions.
func (r *Recorder) RecordRecv(now int64, m wire.Msg) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tail = wire.AppendMsg(r.tail[:0], m)
	r.put(now, DirRecv)
}

// Local records one local protocol decision.
func (r *Recorder) Local(now int64, kind LocalKind, op uint64, args ...int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tail = appendTailLocal(r.tail[:0], kind, op, args)
	r.put(now, DirLocal)
}

// Initiate records the start of a balancing protocol; f is the trigger
// factor, which decides whether the collect can balance with the
// partners it gets.
func (r *Recorder) Initiate(now int64, op, seq uint64, load, partners int, f float64) {
	r.Local(now, LocalInitiate, op, int64(seq), int64(load), int64(partners), int64(math.Float64bits(f)))
}

// Ingest records units of client work added to the node's load.
func (r *Recorder) Ingest(now int64, units int) {
	r.Local(now, LocalIngest, 0, int64(units))
}

// Abort records a protocol abort with the cluster's reason label.
func (r *Recorder) Abort(now int64, op, seq uint64, load int, reason string) {
	r.Local(now, LocalAbort, op, int64(seq), int64(load), AbortCode(reason))
}

// FreezeExpired records a frozen partner releasing itself.
func (r *Recorder) FreezeExpired(now int64, op uint64, by int) {
	r.Local(now, LocalFreezeExpired, op, int64(by))
}

// Crash records the node's protocol fail-stopping: the operation in
// flight and the freeze it held are gone.
func (r *Recorder) Crash(now int64) {
	r.Local(now, LocalCrash, 0)
}

// Resolve records a successful collect: the initiator's post-balance
// load, just before its transfers go out, and whether the reply timeout
// rather than the last reply ended it.
func (r *Recorder) Resolve(now int64, op, seq uint64, loadAfter, partners int, timedOut bool) {
	var t int64
	if timedOut {
		t = 1
	}
	r.Local(now, LocalResolve, op, int64(seq), int64(loadAfter), int64(partners), t)
}

// Complete records one finished serving unit of a job that originated
// on this node.
func (r *Recorder) Complete(now int64, op, job uint64, hops int, sojournNS, transferNS int64) {
	r.Local(now, LocalComplete, op, int64(job), int64(hops), sojournNS, transferNS)
}

// Final records the node's end-of-run accounting — the recording-side
// copy of the conservation audit's inputs.
func (r *Recorder) Final(now int64, load int, generated, consumed, ingested, unitsDone, recordsHeld int64) {
	r.Local(now, LocalFinal, 0, int64(load), generated, consumed, ingested, unitsDone, recordsHeld)
}

// Snapshot seals the current segment and copies the live ring into
// snapshots/snap-NNN-<reason>/ inside the recording directory,
// returning the snapshot path. It holds the recorder while it copies,
// so a node recording meanwhile waits for it rather than losing
// records; after Close it copies the sealed ring. A recorder in memory
// has no directory to snapshot into.
func (r *Recorder) Snapshot(reason string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("flight: nil recorder")
	}
	if r.opts.Dir == "" {
		return "", fmt.Errorf("flight: node %d records in memory and cannot snapshot", r.opts.Node)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seal()
	return r.takeSnapshot(reason)
}

// Load decodes the recording so far, sealed segments and the open one,
// from disk or from memory.
func (r *Recorder) Load() (*NodeRecording, error) {
	segs, err := r.ring()
	if err != nil {
		return nil, err
	}
	return loadSegments(segs)
}

// ring writes out the buffer and returns the ring's segments in order,
// the open one last.
func (r *Recorder) ring() ([]liveSeg, error) {
	if r == nil {
		return nil, fmt.Errorf("flight: nil recorder")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w != nil && !r.flush() {
		return nil, r.lastErr
	}
	segs := slices.Clone(r.live)
	if w := r.w; w != nil {
		segs = append(segs, liveSeg{seq: w.seq, path: w.path, bytes: w.bytes, data: w.mem})
	}
	return segs, nil
}

// Close seals the current segment. Records arriving after Close are
// dropped silently. Close is idempotent.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.seal()
	}
	return r.lastErr
}

// fail keeps the first write error without stopping the recorder; a
// nil err changes nothing.
func (r *Recorder) fail(err error) {
	if r.lastErr == nil {
		r.lastErr = err
	}
}

// write frames one record onto the current segment's buffer, opening
// the segment if none is, and writes the buffer out at flushBytes or
// seals the segment at its boundary.
func (r *Recorder) write(wall int64, dir Dir, tail []byte) error {
	if r.w == nil {
		if err := r.openSegment(wall); err != nil {
			return err
		}
	}
	before := len(r.buf)
	r.buf = appendRecord(r.buf, dir, wall-r.lastWall, tail)
	r.lastWall = wall
	n := int64(len(r.buf) - before)
	r.w.bytes += n
	r.w.records++
	r.bytes.Add(n)
	if r.w.bytes >= r.segBytes {
		r.seal()
	} else if len(r.buf) >= flushBytes {
		r.flush()
	}
	return nil
}

// flush writes the buffer to the open segment and reports whether it
// could. A failed write tears the segment: its records count as
// dropped, and it is closed and deleted, so that the next record opens a
// fresh one and every segment left on disk loads.
func (r *Recorder) flush() bool {
	w := r.w
	if w.f == nil {
		if w.mem == nil { // the segment's first flush takes the buffer whole
			w.mem, r.buf = r.buf, nil
		}
		w.mem = append(w.mem, r.buf...)
		r.buf = r.buf[:0]
		return true
	}
	_, err := w.f.Write(r.buf)
	r.buf = r.buf[:0]
	if err == nil {
		return true
	}
	r.fail(err)
	r.dropped.Add(w.records)
	r.w = nil
	w.f.Close()
	os.Remove(w.path)
	return false
}

// openSegment starts the next segment, a file or in memory; its header
// reference stamp resets the wall-delta chain.
func (r *Recorder) openSegment(wall int64) error {
	var f *os.File
	var path string
	if r.opts.Dir != "" {
		path = filepath.Join(r.opts.Dir, segName(r.segSeq))
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
	}
	r.buf = appendHeader(r.buf[:0], segHeader{node: r.opts.Node, seq: r.segSeq, wallRefNS: wall, codec: wire.Version})
	r.w = &segWriter{f: f, path: path, seq: r.segSeq, bytes: int64(len(r.buf))}
	r.segSeq++
	r.lastWall = wall
	return nil
}

// seal writes out and closes the current segment and trims the ring to
// the byte budget.
func (r *Recorder) seal() {
	w := r.w
	if w == nil || !r.flush() {
		return
	}
	r.w = nil
	if w.f != nil {
		r.fail(w.f.Close())
	}
	r.sealed.Add(1)
	r.live = append(r.live, liveSeg{seq: w.seq, path: w.path, bytes: w.bytes, data: w.mem})
	r.liveBytes += w.bytes
	for len(r.live) > 1 && r.liveBytes > r.opts.MaxBytes {
		old := r.live[0]
		r.live[0] = liveSeg{}
		r.live = r.live[1:]
		r.liveBytes -= old.bytes
		if r.opts.Dir == "" {
			continue // dropping the slice frees it
		}
		if err := os.Remove(old.path); err != nil && !os.IsNotExist(err) {
			r.fail(err)
		}
	}
}

// takeSnapshot copies the sealed ring into a fresh snapshot directory
// with a manifest.
func (r *Recorder) takeSnapshot(reason string) (string, error) {
	r.snapSeq++
	dir := filepath.Join(r.opts.Dir, "snapshots",
		fmt.Sprintf("snap-%03d-%s", r.snapSeq, sanitizeReason(reason)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var copied []string
	var total int64
	for _, s := range r.live {
		name := segName(s.seq)
		p, err := s.read()
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), p, 0o644)
		}
		if err != nil {
			return "", err
		}
		copied = append(copied, name)
		total += int64(len(p))
	}
	man, _ := json.MarshalIndent(map[string]any{
		"node": r.opts.Node, "reason": reason, "at_ns": r.last,
		"segments": copied, "bytes": total,
	}, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(man, '\n'), 0o644); err != nil {
		return "", err
	}
	r.snapshots.Add(1)
	return dir, nil
}

func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason) && len(out) < 32; i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// segName formats a segment file name; the zero-padded sequence keeps
// lexical and numeric order identical.
func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.lbfr", seq) }

// listSegments returns the directory's segment files in sequence
// order.
func listSegments(dir string) ([]liveSeg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []liveSeg
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".lbfr") {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "seg-%d.lbfr", &seq); err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, liveSeg{seq: seq, path: filepath.Join(dir, name), bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}
