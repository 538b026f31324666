package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

// Defaults for Options fields left zero.
const (
	// DefaultMaxBytes bounds the whole segment ring on disk.
	DefaultMaxBytes = 8 << 20
	// DefaultBuffer is the wall-clock adapter's channel depth: how many
	// records may be in flight to its writer before new ones are dropped
	// (and the drop journaled) rather than blocking the protocol.
	DefaultBuffer = 1024
	// minSegBytes floors the per-segment size so rotation stays rare.
	minSegBytes = 4096
)

// Options configures a Recorder.
type Options struct {
	// Dir is the recording directory (created if missing). One node per
	// directory; multi-node recordings use one subdirectory per node
	// (see LoadTree).
	Dir string
	// Node is the recording node's cluster id.
	Node int
	// MaxBytes bounds the segment ring (0 = DefaultMaxBytes). Snapshots
	// are preserved copies and do not count against it.
	MaxBytes int64
	// SegBytes is the rotation threshold per segment (0 = MaxBytes/8,
	// floored at minSegBytes).
	SegBytes int64
	// Buffer is the wall-clock adapter's channel depth (0 =
	// DefaultBuffer); a recorder never tapped has no channel.
	Buffer int
}

// Recorder is one node's flight recorder. Every record carries its
// driver's clock: each recording method takes now, the time the node
// acted on — unix nanoseconds under cmd/lbnode and the TCP cluster, the
// virtual tick under netsim — and a record is never stamped before the
// one ahead of it. The recorder reads no clock of its own.
//
// Until Tap is called, the recorder is driven by one goroutine, its
// node's driver, and each recording call encodes its record straight
// into the current segment: nothing queues, so nothing can be dropped.
// Tap attaches the wall-clock adapter (see tap.go), after which the
// recording methods are safe for concurrent use and never block on I/O.
// A nil *Recorder is the disabled path, like a nil *obs.Registry: every
// method is a no-op.
type Recorder struct {
	opts Options

	// The wall-clock adapter's channel to its writer goroutine, nil
	// until Tap starts it (see tap.go).
	ch    chan pending
	stop  chan struct{}
	done  chan struct{}
	snap  chan snapReq
	start sync.Once

	closed  atomic.Bool
	gap     atomic.Int64 // records dropped since the last one queued
	last    atomic.Int64 // the latest stamp recorded; stamps never regress
	pool    sync.Pool
	lastErr atomic.Pointer[error]

	records   obs.Counter
	bytes     obs.Counter
	dropped   obs.Counter
	sealed    obs.Counter
	snapshots obs.Counter

	// segment state: the driver's until Tap, then the writer goroutine's
	w         *segWriter
	bw        *bufio.Writer // every segment's buffer: from writerPool, back at Close
	segSeq    uint64
	lastWall  int64
	scratch   []byte
	live      []liveSeg
	liveBytes int64
	snapSeq   int
}

// pending is one record on its way into the segment.
type pending struct {
	wall int64
	dir  Dir
	tail []byte // pooled; returned once written
	gap  int64  // records dropped between the previous queued record and this one
}

type snapReq struct {
	reason string
	reply  chan snapResult
}

type snapResult struct {
	dir string
	err error
}

// liveSeg is one on-disk segment of the ring.
type liveSeg struct {
	seq   uint64
	path  string
	bytes int64
}

// segWriter is the open, current segment, written through the
// recorder's bw.
type segWriter struct {
	f     *os.File
	path  string
	seq   uint64
	bytes int64
}

// Open creates (or resumes) a recording directory. Existing segments
// in the directory are kept, counted against the ring budget, and
// extended — a restarted daemon appends to its ring rather than
// clobbering the incident evidence it just wrote. Open starts no
// goroutine; Tap does.
func Open(o Options) (*Recorder, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("flight: Options.Dir is required")
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.SegBytes <= 0 {
		o.SegBytes = o.MaxBytes / 8
	}
	if o.SegBytes < minSegBytes {
		o.SegBytes = minSegBytes
	}
	if o.Buffer <= 0 {
		o.Buffer = DefaultBuffer
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	r := &Recorder{opts: o}
	r.pool.New = func() any { b := make([]byte, 0, 512); return &b }
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

// Dir returns the recording directory ("" on a nil recorder).
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
	if p := r.lastErr.Load(); p != nil {
		return *p
	}
	return nil
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

// Dropped returns the number of records dropped because the wall-clock
// adapter's buffer was full. It stays 0 on a recorder never tapped.
func (r *Recorder) Dropped() int64 { return r.dropped.Value() }

// Records returns the number of records accepted for writing.
func (r *Recorder) Records() int64 { return r.records.Value() }

// put stamps one record at now, or at the previous record's stamp if
// that is later, and writes it into the current segment — or, once Tap
// has started the wall-clock adapter, hands it to the writer goroutine.
// A closed recorder drops the record silently.
func (r *Recorder) put(now int64, dir Dir, tail *[]byte) {
	if r.closed.Load() {
		r.pool.Put(tail)
		return
	}
	now = max(now, r.last.Load())
	r.last.Store(now)
	if r.ch != nil {
		r.queue(pending{wall: now, dir: dir, tail: *tail, gap: r.gap.Swap(0)}, tail)
		return
	}
	r.records.Add(1)
	r.write(pending{wall: now, dir: dir, tail: *tail})
}

func (r *Recorder) buf() *[]byte {
	b := r.pool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// RecordSend records one frame this node sent to peer `to` at now.
func (r *Recorder) RecordSend(now int64, to int, m wire.Msg) {
	if r == nil {
		return
	}
	b := r.buf()
	*b = appendTailSend(*b, to, m)
	r.put(now, DirSend, b)
}

// RecordRecv records one frame this node is about to process. The node
// calls it where it acts on the frame, so receives land in the stream in
// processing order among its sends and decisions.
func (r *Recorder) RecordRecv(now int64, m wire.Msg) {
	if r == nil {
		return
	}
	b := r.buf()
	*b = wire.AppendMsg(*b, m)
	r.put(now, DirRecv, b)
}

// Local records one local protocol decision.
func (r *Recorder) Local(now int64, kind LocalKind, op uint64, args ...int64) {
	if r == nil {
		return
	}
	b := r.buf()
	*b = appendTailLocal(*b, kind, op, args)
	r.put(now, DirLocal, b)
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
// returning the snapshot path. Safe while recording continues (the
// writer pauses between records) and after Close (the ring is sealed).
func (r *Recorder) Snapshot(reason string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("flight: nil recorder")
	}
	if r.ch == nil {
		// No adapter: the caller is the driver, and every record is
		// already in the segment.
		r.seal()
		return r.takeSnapshot(reason)
	}
	req := snapReq{reason: reason, reply: make(chan snapResult, 1)}
	select {
	case r.snap <- req:
		res := <-req.reply
		return res.dir, res.err
	case <-r.done:
		// Writer gone: everything on disk is sealed; copy directly.
		return r.takeSnapshot(reason)
	}
}

// Close seals the current segment — after the wall-clock adapter, if
// Tap started one, has written what it holds. Records arriving after
// Close are dropped silently. Close is idempotent.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	first := r.closed.CompareAndSwap(false, true)
	switch {
	case r.ch != nil:
		if first {
			close(r.stop)
		}
		<-r.done
	case first:
		r.seal()
	}
	if first && r.bw != nil {
		r.bw.Reset(nil)
		writerPool.Put(r.bw)
		r.bw = nil
	}
	return r.Err()
}

// writerPool holds the segment buffers of closed recorders. A recording
// of many short streams (a netsim world records one per node, and a grid
// runs thousands of worlds) would otherwise allocate and zero a 32 KiB
// buffer per segment for segments of a few KiB.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// journal writes a LocalDrops record for gap dropped records, exactly
// where they were dropped: replay must know the stream has a hole there.
func (r *Recorder) journal(wall, gap int64) {
	if gap > 0 {
		r.writeRecord(pending{wall: wall, dir: DirLocal, tail: appendTailLocal(nil, LocalDrops, 0, []int64{gap})})
	}
}

// fail records a writer error without stopping the recorder.
func (r *Recorder) fail(err error) {
	if err == nil {
		return
	}
	r.lastErr.CompareAndSwap(nil, &err)
}

// write appends one record to the current segment, journaling any
// drop gap first and rotating at the segment boundary.
func (r *Recorder) write(p pending) {
	defer func() {
		b := p.tail
		r.pool.Put(&b)
	}()
	r.journal(p.wall, p.gap)
	r.writeRecord(p)
}

func (r *Recorder) writeRecord(p pending) {
	if r.w == nil {
		if err := r.openSegment(p.wall); err != nil {
			r.fail(err)
			return
		}
	}
	prev := r.lastWall
	r.scratch = appendRecord(r.scratch[:0], p.dir, p.wall-prev, p.tail)
	if _, err := r.bw.Write(r.scratch); err != nil {
		r.fail(err)
		return
	}
	r.lastWall = p.wall
	n := int64(len(r.scratch))
	r.w.bytes += n
	r.bytes.Add(n)
	if r.w.bytes >= r.opts.SegBytes {
		r.seal()
	}
}

// openSegment starts the next segment file; its header reference stamp
// resets the wall-delta chain.
func (r *Recorder) openSegment(wall int64) error {
	path := filepath.Join(r.opts.Dir, segName(r.segSeq))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if r.bw == nil {
		r.bw = writerPool.Get().(*bufio.Writer)
	}
	r.bw.Reset(f)
	w := &segWriter{f: f, path: path, seq: r.segSeq}
	hdr := appendHeader(nil, segHeader{node: r.opts.Node, seq: r.segSeq, wallRefNS: wall, codec: wire.Version})
	if _, err := r.bw.Write(hdr); err != nil {
		f.Close()
		return err
	}
	w.bytes = int64(len(hdr))
	r.w = w
	r.segSeq++
	r.lastWall = wall
	return nil
}

// seal flushes and closes the current segment and trims the ring to the
// byte budget.
func (r *Recorder) seal() {
	w := r.w
	if w == nil {
		return
	}
	r.w = nil
	if err := r.bw.Flush(); err != nil {
		r.fail(err)
	}
	if err := w.f.Close(); err != nil {
		r.fail(err)
	}
	r.sealed.Add(1)
	r.live = append(r.live, liveSeg{seq: w.seq, path: w.path, bytes: w.bytes})
	r.liveBytes += w.bytes
	for len(r.live) > 1 && r.liveBytes > r.opts.MaxBytes {
		old := r.live[0]
		r.live = r.live[1:]
		r.liveBytes -= old.bytes
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
	segs, err := listSegments(r.opts.Dir)
	if err != nil {
		return "", err
	}
	var copied []string
	var total int64
	for _, s := range segs {
		n, err := copyFile(filepath.Join(dir, filepath.Base(s.path)), s.path)
		if err != nil {
			return "", err
		}
		copied = append(copied, filepath.Base(s.path))
		total += n
	}
	man, _ := json.MarshalIndent(map[string]any{
		"node": r.opts.Node, "reason": reason, "at_ns": r.last.Load(),
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

func copyFile(dst, src string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
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
