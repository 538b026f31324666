package flight

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := segHeader{node: 7, seq: 42, wallRefNS: 1_700_000_000_123_456_789, codec: wire.Version}
	buf := appendHeader(nil, h)
	got, n, err := decodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d header bytes", n, len(buf))
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	if _, _, err := decodeHeader([]byte("NOPEnope")); err == nil {
		t.Fatal("bad magic accepted")
	}
	buf := appendHeader(nil, segHeader{node: 1, seq: 0, wallRefNS: 5, codec: 3})
	buf[4] = 99 // unknown container version
	if _, _, err := decodeHeader(buf); err == nil {
		t.Fatal("unknown format version accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	msg := wire.Msg{Kind: wire.FreezeAck, From: 3, Seq: 9, Op: 77, Load: 12}
	cases := []struct {
		name string
		dir  Dir
		tail []byte
	}{
		{"send", DirSend, appendTailSend(nil, 5, msg)},
		{"recv", DirRecv, wire.AppendMsg(nil, msg)},
		{"local", DirLocal, appendTailLocal(nil, LocalAbort, 77, []int64{9, 12, abortTimeout})},
	}
	prev := int64(1000)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := appendRecord(nil, tc.dir, 250, tc.tail)
			// Strip the length prefix the segment reader consumes.
			_, n := uvarint(buf)
			var ev Event
			if err := decodeRecord(buf[n:], prev, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Dir != tc.dir || ev.WallNS != prev+250 {
				t.Fatalf("dir=%v wall=%d", ev.Dir, ev.WallNS)
			}
			switch tc.dir {
			case DirSend:
				if ev.Peer != 5 || !ev.Msg.Equal(msg) {
					t.Fatalf("send decoded to peer=%d msg=%+v", ev.Peer, ev.Msg)
				}
			case DirRecv:
				if ev.Peer != msg.From || !ev.Msg.Equal(msg) {
					t.Fatalf("recv decoded to peer=%d msg=%+v", ev.Peer, ev.Msg)
				}
			case DirLocal:
				if ev.Kind != LocalAbort || ev.Op != 77 || ev.Arg(2) != abortTimeout {
					t.Fatalf("local decoded to %v op=%d args=%v", ev.Kind, ev.Op, ev.Args)
				}
				if ev.Arg(10) != 0 {
					t.Fatal("absent arg must read as 0")
				}
			}
		})
	}
}

func uvarint(p []byte) (uint64, int) {
	var v uint64
	var s uint
	for i, b := range p {
		if b < 0x80 {
			return v | uint64(b)<<s, i + 1
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

func TestAbortCodes(t *testing.T) {
	for _, reason := range []string{"peer_frozen", "timeout", "stale_epoch", "link_down"} {
		if got := AbortReason(AbortCode(reason)); got != reason {
			t.Errorf("%s round-tripped to %s", reason, got)
		}
	}
	if AbortCode("never_heard_of_it") != abortUnknown {
		t.Error("unknown reason must map to code 0")
	}
	if AbortReason(999) != "unknown" {
		t.Error("unknown code must map to \"unknown\"")
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec, err := Open(Options{Dir: dir, Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	msg := wire.Msg{Kind: wire.Transfer, From: 2, Seq: 4, Op: 11, Amount: -3}
	rec.RecordSend(10, 0, msg)
	rec.RecordRecv(12, wire.Msg{Kind: wire.Release, From: 0, Seq: 4, Op: 11})
	rec.Initiate(11, 11, 4, 9, 2, 1.5) // earlier than its predecessor: stamped at 12
	rec.Final(20, 5, 100, 95, 0, 0, 0)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	nr := mustLoad(t, dir)
	if nr.Node != 2 || nr.Torn || len(nr.Events) != 4 {
		t.Fatalf("node=%d torn=%v events=%d", nr.Node, nr.Torn, len(nr.Events))
	}
	if nr.Events[0].Dir != DirSend || !nr.Events[0].Msg.Equal(msg) || nr.Events[0].Peer != 0 {
		t.Fatalf("event 0: %+v", nr.Events[0])
	}
	if nr.Events[2].Kind != LocalInitiate || nr.Events[2].Op != 11 || nr.Events[2].Arg(1) != 9 {
		t.Fatalf("event 2: %+v", nr.Events[2])
	}
	if got := []int64{nr.Events[0].WallNS, nr.Events[1].WallNS, nr.Events[2].WallNS, nr.Events[3].WallNS}; !slices.Equal(got, []int64{10, 12, 12, 20}) {
		t.Fatalf("stamps %v, want the driver's clock, never regressing: [10 12 12 20]", got)
	}
	// Nil recorder: every method is a no-op.
	var nilRec *Recorder
	nilRec.RecordSend(0, 0, msg)
	nilRec.Initiate(0, 1, 1, 1, 1, 1.5)
	if nilRec.Tap(nil) != nil {
		t.Fatal("nil recorder Tap must pass the transport through")
	}
	if err := nilRec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderRotationAndRingTrim records one stream into a tiny ring
// on disk and in memory: both media rotate and evict alike, byte for
// byte, and what survives is a contiguous suffix of the stream.
func TestRecorderRotationAndRingTrim(t *testing.T) {
	var rings [2][][]byte
	for k, dir := range []string{t.TempDir(), ""} {
		// Tiny ring (segments of minSegBytes): force many rotations and
		// ring eviction. Every record is written, so the eviction
		// arithmetic is deterministic.
		rec, err := Open(Options{Dir: dir, Node: 0, MaxBytes: 8 * minSegBytes})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			rec.Local(int64(i), LocalPaceBackoff, 0, int64(i))
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if rec.Dropped() > 0 {
			t.Fatalf("the recorder dropped %d records", rec.Dropped())
		}
		segs, err := rec.ring()
		if dir != "" {
			segs, err = listSegments(dir) // what is left on disk
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) < 2 {
			t.Fatalf("expected rotation, got %d segments", len(segs))
		}
		var total int64
		for _, s := range segs {
			total += s.bytes
		}
		// The open segment can exceed the budget transiently; the sealed
		// ring must be near it (one segment of slack).
		if total > 8*minSegBytes+minSegBytes {
			t.Fatalf("ring holds %d bytes, budget %d", total, 8*minSegBytes)
		}
		if segs[0].seq == 0 {
			t.Fatal("oldest segment should have been evicted")
		}
		nr, err := rec.Load()
		if err != nil {
			t.Fatal(err)
		}
		// The surviving events must be a contiguous suffix of what was put.
		var prev int64 = -1
		for _, ev := range nr.Events {
			if ev.Kind != LocalPaceBackoff {
				continue
			}
			if prev >= 0 && ev.Arg(0) != prev+1 {
				t.Fatalf("gap in surviving stream: %d after %d", ev.Arg(0), prev)
			}
			prev = ev.Arg(0)
		}
		if prev != 19999 {
			t.Fatalf("last surviving event is %d, want 19999", prev)
		}
		if rings[k], err = SegmentBytes(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(rings[0], rings[1]) {
		t.Fatalf("disk and memory rings differ: %d and %d segments", len(rings[0]), len(rings[1]))
	}
}

func TestRecorderResume(t *testing.T) {
	dir := t.TempDir()
	rec, err := Open(Options{Dir: dir, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec.Local(1, LocalPaceBackoff, 0, 1)
	rec.Close()
	rec2, err := Open(Options{Dir: dir, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec2.Local(2, LocalPaceBackoff, 0, 2)
	rec2.Close()
	nr := mustLoad(t, dir)
	if len(nr.Events) != 2 || nr.Events[0].Arg(0) != 1 || nr.Events[1].Arg(0) != 2 {
		t.Fatalf("resume lost events: %+v", nr.Events)
	}
	if nr.Segments != 2 {
		t.Fatalf("expected 2 segments after resume, got %d", nr.Segments)
	}
}

func TestTornFinalSegmentRecovers(t *testing.T) {
	dir := t.TempDir()
	rec, err := Open(Options{Dir: dir, Node: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec.Local(int64(i), LocalPaceBackoff, 0, int64(i))
	}
	rec.Close()
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1].path
	p, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-body, as a crash mid-write would.
	if err := os.WriteFile(last, p[:len(p)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	nr, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("torn tail must not poison replay: %v", err)
	}
	if !nr.Torn {
		t.Fatal("Torn not reported")
	}
	if len(nr.Events) != 99 {
		t.Fatalf("recovered %d events, want 99", len(nr.Events))
	}
	// The same corruption mid-stream (not the final segment) is an
	// error: evidence silently missing from the middle is not a tear.
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("LBFRjunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("mid-recording corruption must error")
	}
}

// TestOldCodecSegmentRejected: the container is unchanged, but a
// segment whose header says its payloads are codec v2 or v3 is refused
// by name before any record is decoded; what WriteDir writes
// round-trips.
func TestOldCodecSegmentRejected(t *testing.T) {
	for _, codec := range []byte{2, 3} {
		old := t.TempDir()
		seg := appendHeader(nil, segHeader{node: 0, wallRefNS: 1000, codec: codec})
		seg = append(seg, "not a record"...) // never reached
		if err := os.WriteFile(filepath.Join(old, segName(0)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadDir(old)
		if want := fmt.Sprintf("codec v%d, this reader decodes only v%d", codec, wire.Version); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("codec-%d segment: err = %v, want one saying %q", codec, err, want)
		}
	}

	dir := t.TempDir()
	events := []Event{
		{WallNS: 1000, Dir: DirLocal, Kind: LocalInitiate, Op: 5, Args: []int64{1, 10, 1}},
		{WallNS: 1001, Dir: DirSend, Peer: 1, Msg: wire.Msg{Kind: wire.FreezeReq, From: 0, Seq: 1, Op: 5}},
		{WallNS: 1002, Dir: DirRecv, Msg: wire.Msg{Kind: wire.FreezeAck, From: 1, Seq: 1, Op: 5, Load: 4}},
		{WallNS: 1003, Dir: DirLocal, Kind: LocalResolve, Op: 5, Args: []int64{1, 7, 1}},
		{WallNS: 1004, Dir: DirSend, Peer: 1, Msg: wire.Msg{Kind: wire.Transfer, From: 0, Seq: 1, Op: 5, Amount: 3}},
		{WallNS: 1005, Dir: DirLocal, Kind: LocalFinal, Args: []int64{7, 7, 0, 0, 0, 0}},
	}
	if err := WriteDir(dir, 0, events); err != nil {
		t.Fatal(err)
	}
	nr := mustLoad(t, dir)
	if len(nr.Events) != len(events) || !nr.Events[1].Msg.Equal(events[1].Msg) {
		t.Fatalf("round trip: %d events, frame %+v", len(nr.Events), nr.Events[1].Msg)
	}
	res := Audit(&Recording{Nodes: []*NodeRecording{nr}})
	if len(res.Violations) != 0 || res.TotalLoad != 7 || !res.Conserved() {
		t.Fatalf("violations=%v load=%d conserved=%v", res.Violations, res.TotalLoad, res.Conserved())
	}
}

// TestOldFormatSegmentRejected: a container-v1 segment recorded receives
// ahead of processing and cannot be re-executed, so it is refused by name
// before any record is decoded; a v2 segment from WriteDir round-trips.
func TestOldFormatSegmentRejected(t *testing.T) {
	old := t.TempDir()
	seg := appendHeader(nil, segHeader{node: 0, wallRefNS: 1000, codec: wire.Version})
	seg[len(magic)] = 1
	seg = append(seg, "not a record"...) // never reached
	if err := os.WriteFile(filepath.Join(old, segName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(old)
	if err == nil || !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "v2") {
		t.Fatalf("format-1 segment: err = %v, want one naming v1 and v2", err)
	}

	dir := t.TempDir()
	events := []Event{
		{WallNS: 7, Dir: DirLocal, Peer: -1, Kind: LocalIngest, Args: []int64{3}},
		{WallNS: 8, Dir: DirRecv, Peer: 2, Msg: wire.Msg{Kind: wire.FreezeReq, From: 2, Seq: 4, Op: 6}},
		{WallNS: 9, Dir: DirSend, Peer: 2, Msg: wire.Msg{Kind: wire.FreezeAck, From: 0, Seq: 4, Op: 6, Load: 3}},
	}
	if err := WriteDir(dir, 0, events); err != nil {
		t.Fatal(err)
	}
	nr := mustLoad(t, dir)
	for i, ev := range nr.Events {
		want := events[i]
		if ev.WallNS != want.WallNS || ev.Dir != want.Dir || ev.Peer != want.Peer || !ev.Msg.Equal(want.Msg) ||
			ev.Kind != want.Kind || fmt.Sprint(ev.Args) != fmt.Sprint(want.Args) {
			t.Fatalf("event %d round-tripped to %+v, want %+v", i, ev, want)
		}
	}
}

// TestSnapshot seals and copies the ring: on a recorder driven by one
// goroutine, and (under -race) on a tapped one that a second goroutine
// snapshots while the first records.
func TestSnapshot(t *testing.T) {
	t.Run("tapped=false", func(t *testing.T) {
		dir := t.TempDir()
		rec, err := Open(Options{Dir: dir, Node: 4})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		rec.Register(reg)
		rec.Initiate(1, 9, 1, 3, 1, 1.5)
		snap, err := rec.Snapshot("slo alert: p99 burn")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(snap, "snap-001-slo_alert") {
			t.Fatalf("snapshot path %q", snap)
		}
		if _, err := os.Stat(filepath.Join(snap, "manifest.json")); err != nil {
			t.Fatal(err)
		}
		// Recording continues after a snapshot, and the snapshot itself
		// replays standalone.
		rec.Final(2, 3, 3, 0, 0, 0, 0)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := LoadTree(snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Nodes) != 1 || len(got.Nodes[0].Events) != 1 {
			t.Fatalf("snapshot replayed %d nodes", len(got.Nodes))
		}
		full := mustLoad(t, dir)
		if len(full.Events) != 2 {
			t.Fatalf("live ring has %d events, want 2", len(full.Events))
		}
		// Post-Close snapshots capture the sealed ring (the daemon's
		// shutdown path can still preserve evidence).
		snap2, err := rec.Snapshot("after close")
		if err != nil {
			t.Fatal(err)
		}
		got2, err := LoadTree(snap2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got2.Nodes[0].Events) != 2 {
			t.Fatalf("post-close snapshot has %d events", len(got2.Nodes[0].Events))
		}
	})
	t.Run("tapped=true", func(t *testing.T) {
		dir := t.TempDir()
		rec, err := Open(Options{Dir: dir, Node: 0})
		if err != nil {
			t.Fatal(err)
		}
		tr := rec.Tap(sink{})
		const ops = 2000
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			// One balanced operation after another: load 10 against a
			// partner at 4 resolves to 7 and transfers 3.
			for k := uint64(1); k <= ops; k++ {
				now := int64(10 * k)
				rec.Initiate(now, k, k, 10, 1, 1.5)
				tr.Send(1, wire.Msg{Kind: wire.FreezeReq, Seq: k, Op: k})
				rec.RecordRecv(now+1, wire.Msg{Kind: wire.FreezeAck, From: 1, Seq: k, Op: k, Load: 4})
				rec.Resolve(now+2, k, k, 7, 1, false)
				tr.Send(1, wire.Msg{Kind: wire.Transfer, Seq: k, Op: k, Amount: 3})
				if k == 1 {
					close(started)
				}
			}
		}()
		<-started
		var snaps []string
	snapshot:
		for len(snaps) < 20 {
			snap, err := rec.Snapshot("race")
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
			select {
			case <-done:
				break snapshot
			default:
			}
		}
		<-done
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		full := mustLoad(t, dir)
		if n := len(full.Events); n != 5*ops {
			t.Fatalf("final stream has %d records, want %d", n, 5*ops)
		}
		for _, snap := range snaps {
			got := mustLoad(t, snap)
			evs := got.Events
			if len(evs) > len(full.Events) || !reflect.DeepEqual(evs, full.Events[:len(evs)]) {
				t.Fatalf("%s: %d records, not a prefix of the final stream", snap, len(evs))
			}
			if res := Audit(&Recording{Nodes: []*NodeRecording{got}}); len(res.Violations) != 0 {
				t.Fatalf("%s audits dirty: %v", snap, res.Violations)
			}
		}
	})
}

// sink is a transport that accepts every send.
type sink struct{ wire.Transport }

func (sink) Send(int, wire.Msg) error { return nil }

// TestRecorderWriteFailure: a record the recorder cannot write is
// counted as dropped, and the error is kept.
func TestRecorderWriteFailure(t *testing.T) {
	dir := t.TempDir()
	// A directory where the first segment file belongs: openSegment fails.
	if err := os.Mkdir(filepath.Join(dir, segName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(Options{Dir: dir, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	rec.Initiate(1, 1, 1, 3, 1, 1.5)
	rec.RecordSend(2, 1, wire.Msg{Kind: wire.FreezeReq, Seq: 1, Op: 1})
	rec.RecordRecv(3, wire.Msg{Kind: wire.FreezeBusy, From: 1, Seq: 1, Op: 1})
	if got := rec.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want the 3 records offered", got)
	}
	if rec.Err() == nil {
		t.Fatal("Err() is nil after failed writes")
	}
	if err := rec.Close(); err == nil {
		t.Fatal("Close returned no error after failed writes")
	}
}

// TestRecorderTornSegment: a write that fails part way through a
// recording loses the open segment, counted, and no more. Closing the
// segment's file under the recorder makes its first write fail; every
// record after that lands in fresh segments that load.
func TestRecorderTornSegment(t *testing.T) {
	dir := t.TempDir()
	rec, err := Open(Options{Dir: dir, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	rec.Ingest(1, 1)
	rec.w.f.Close()
	for i := int64(0); i < 100_000; i++ {
		rec.Ingest(2+i, 1)
	}
	if err := rec.Close(); err == nil {
		t.Fatal("Close returned no error after a failed write")
	}
	nr := mustLoad(t, dir)
	if rec.Dropped() == 0 || rec.Records() != rec.Dropped()+int64(len(nr.Events)) {
		t.Fatalf("%d records, %d dropped, %d on disk", rec.Records(), rec.Dropped(), len(nr.Events))
	}
}

// TestRecordingAllocatesNothing: a record is encoded into the
// recorder's own buffers and written on the call.
func TestRecordingAllocatesNothing(t *testing.T) {
	rec, err := Open(Options{Dir: t.TempDir(), Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	msg := wire.Msg{Kind: wire.Transfer, From: 0, Seq: 4, Op: 11, Amount: -3}
	rec.Initiate(1, 11, 4, 9, 2, 1.5) // open the segment and grow the buffers
	for name, record := range map[string]func(){
		"RecordSend": func() { rec.RecordSend(2, 1, msg) },
		"RecordRecv": func() { rec.RecordRecv(2, msg) },
		"Local":      func() { rec.Local(2, LocalAbort, 11, 4, 9, 2) },
	} {
		if n := testing.AllocsPerRun(1000, record); n != 0 {
			t.Errorf("%s: %v allocs per record, want 0", name, n)
		}
	}
}

func TestTamperedRecordingIsFlagged(t *testing.T) {
	events := []Event{
		{WallNS: 10, Dir: DirLocal, Kind: LocalInitiate, Op: 5, Args: []int64{1, 10, 1}},
		{WallNS: 11, Dir: DirSend, Peer: 1, Msg: wire.Msg{Kind: wire.FreezeReq, From: 0, Seq: 1, Op: 5}},
		{WallNS: 12, Dir: DirRecv, Msg: wire.Msg{Kind: wire.FreezeAck, From: 1, Seq: 1, Op: 5, Load: 4}},
		{WallNS: 13, Dir: DirLocal, Kind: LocalResolve, Op: 5, Args: []int64{1, 7, 1}},
		{WallNS: 14, Dir: DirSend, Peer: 1, Msg: wire.Msg{Kind: wire.Transfer, From: 0, Seq: 1, Op: 5, Amount: 3}},
	}
	clean := audited(t, events)
	if len(clean.Violations) != 0 {
		t.Fatalf("clean recording flagged: %v", clean.Violations)
	}
	// Tamper: inflate the transfer amount. Shares become {7, 4+9=13}.
	events[4].Msg.Amount = 9
	bad := audited(t, events)
	if bad.First == nil || bad.First.Rule != "imbalance_violation" {
		t.Fatalf("tampered transfer not flagged: %+v", bad.First)
	}
	if bad.First.Index != 4 {
		t.Fatalf("flagged event %d, want the transfer at 4", bad.First.Index)
	}
	if diff := Diff(clean, bad); len(diff) == 0 {
		t.Fatal("Diff found no disagreement between clean and tampered")
	}
}

func mustLoad(t *testing.T, dir string) *NodeRecording {
	t.Helper()
	nr, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return nr
}

// audited writes evs as node 0's recording, loads it back and audits it.
func audited(t *testing.T, evs []Event) *AuditResult {
	t.Helper()
	dir := t.TempDir()
	if err := WriteDir(dir, 0, evs); err != nil {
		t.Fatal(err)
	}
	return Audit(&Recording{Nodes: []*NodeRecording{mustLoad(t, dir)}})
}

// Shorthands for hand-written streams; the runner stamps WallNS.
func sent(to int, k wire.Kind, seq, op uint64, load, amount int) Event {
	return Event{Dir: DirSend, Peer: to, Msg: wire.Msg{Kind: k, From: 0, Seq: seq, Op: op, Load: load, Amount: amount}}
}

func got(from int, k wire.Kind, seq, op uint64, load, amount int) Event {
	return Event{Dir: DirRecv, Msg: wire.Msg{Kind: k, From: from, Seq: seq, Op: op, Load: load, Amount: amount}}
}

func local(k LocalKind, op uint64, args ...int64) Event {
	return Event{Dir: DirLocal, Kind: k, Op: op, Args: args}
}

// divergence is one hand-written stream and where its audit must first
// part from the re-executed machine.
type divergence struct {
	name  string
	index int
	rule  string
	evs   []Event
}

func checkDivergences(t *testing.T, cases []divergence) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := range tc.evs {
				tc.evs[i].WallNS = int64(i + 1)
			}
			res := audited(t, tc.evs)
			if res.First == nil || res.First.Rule != tc.rule || res.First.Index != tc.index {
				t.Fatalf("want %s at event %d; got %v", tc.rule, tc.index, res.Violations)
			}
		})
	}
}

// TestShadowMachineRules: illegal steps a driver could record, each
// caught where the recording parts from the machine replaying it.
// Streams open with a record that proves the node unengaged (its own
// initiate, or a FreezeReq it acks), since replay judges nothing before.
func TestShadowMachineRules(t *testing.T) {
	const op, seq = 9, 1
	checkDivergences(t, []divergence{
		{"busy while free", 4, "diverged", []Event{
			got(1, wire.FreezeReq, 3, op, 0, 0),
			sent(1, wire.FreezeAck, 3, op, 2, 0),
			got(1, wire.Transfer, 3, op, 0, 1),
			got(2, wire.FreezeReq, 8, 10, 0, 0),
			sent(2, wire.FreezeBusy, 8, 10, 0, 0), // free: the machine acks
		}},
		{"ack while frozen", 3, "diverged", []Event{
			got(1, wire.FreezeReq, 3, op, 0, 0),
			sent(1, wire.FreezeAck, 3, op, 2, 0),
			got(2, wire.FreezeReq, 8, 10, 0, 0),
			sent(2, wire.FreezeAck, 8, 10, 2, 0), // frozen: the machine is busy
		}},
		{"transfer to unacked peer", 4, "transfer_to_unacked", []Event{
			local(LocalInitiate, op, seq, 6, 1),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			got(1, wire.FreezeAck, seq, op, 2, 0),
			local(LocalResolve, op, seq, 4, 1),
			sent(2, wire.Transfer, seq, op, 0, 2),
		}},
		{"transfer to the partner that answered busy", 6, "transfer_to_unacked", []Event{
			local(LocalInitiate, op, seq, 6, 2),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			sent(2, wire.FreezeReq, seq, op, 0, 0),
			got(1, wire.FreezeAck, seq, op, 2, 0),
			got(2, wire.FreezeBusy, seq, op, 0, 0),
			local(LocalResolve, op, seq, 4, 1),
			sent(2, wire.Transfer, seq, op, 0, 2),
		}},
		{"resolve over more partners than acked", 4, "diverged", []Event{
			local(LocalInitiate, op, seq, 6, 2),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			sent(2, wire.FreezeReq, seq, op, 0, 0),
			got(1, wire.FreezeAck, seq, op, 2, 0),
			local(LocalResolve, op, seq, 4, 2),
		}},
		{"last-reply resolve drops a partner that acked", 5, "diverged", []Event{
			local(LocalInitiate, op, seq, 6, 2),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			sent(2, wire.FreezeReq, seq, op, 0, 0),
			got(1, wire.FreezeAck, seq, op, 2, 0),
			got(2, wire.FreezeAck, seq, op, 2, 0),
			local(LocalResolve, op, seq, 4, 1),
		}},
		{"seq regression", 3, "diverged", []Event{
			local(LocalInitiate, op, 5, 6, 1),
			sent(1, wire.FreezeReq, 5, op, 0, 0),
			local(LocalAbort, op, 5, 6, abortTimeout),
			local(LocalInitiate, 10, 4, 6, 1),
			sent(1, wire.FreezeReq, 4, 10, 0, 0),
		}},
		{"initiate while inflight", 2, "diverged", []Event{
			local(LocalInitiate, op, seq, 6, 1),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			local(LocalInitiate, 10, 2, 6, 1),
			sent(1, wire.FreezeReq, 2, 10, 0, 0),
		}},
		{"freeze expiry while free", 3, "diverged", []Event{
			got(1, wire.FreezeReq, 3, op, 0, 0),
			sent(1, wire.FreezeAck, 3, op, 2, 0),
			got(1, wire.Transfer, 3, op, 0, 0),
			local(LocalFreezeExpired, op, 1),
		}},
		{"bye contradicts final", 1, "bye_mismatch", []Event{
			sent(0, wire.Bye, 0, 0, 5, 0),
			local(LocalFinal, 0, 6, 6, 0, 0, 0, 0),
		}},
	})
}

// TestAuditDivergences: steps that are each legal on their own but are
// not what the machine computes — the divergences only re-execution sees.
func TestAuditDivergences(t *testing.T) {
	const op, seq = 1, 1
	two := int64(math.Float64bits(2))
	checkDivergences(t, []divergence{
		{"initiator keeps an extra the total does not have", 3, "imbalance_violation", []Event{
			local(LocalInitiate, op, seq, 7, 1),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			got(1, wire.FreezeAck, seq, op, 3, 0),
			local(LocalResolve, op, seq, 6, 1),
		}},
		{"an ingest missing from the stream", 3, "imbalance_violation", []Event{
			local(LocalInitiate, op, seq, 6, 1),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			got(1, wire.FreezeAck, seq, op, 2, 0),
			local(LocalResolve, op, seq, 5, 1), // 5 of 10: an unrecorded +2
		}},
		{"transfers out of acker order", 6, "diverged", []Event{
			local(LocalInitiate, op, seq, 6, 2),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			sent(2, wire.FreezeReq, seq, op, 0, 0),
			got(2, wire.FreezeAck, seq, op, 3, 0),
			got(1, wire.FreezeAck, seq, op, 3, 0),
			local(LocalResolve, op, seq, 4, 2),
			sent(1, wire.Transfer, seq, op, 0, 1), // the machine pays 2 first
		}},
		{"abort while an ack stands", 5, "diverged", []Event{
			local(LocalInitiate, op, seq, 6, 2),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			sent(2, wire.FreezeReq, seq, op, 0, 0),
			got(1, wire.FreezeAck, seq, op, 2, 0),
			got(2, wire.FreezeBusy, seq, op, 0, 0),
			local(LocalAbort, op, seq, 6, abortPeerFrozen),
		}},
		{"one acker under f=2 cannot balance", 5, "diverged", []Event{
			local(LocalInitiate, op, seq, 6, 2, two),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			sent(2, wire.FreezeReq, seq, op, 0, 0),
			got(1, wire.FreezeAck, seq, op, 2, 0),
			got(2, wire.FreezeBusy, seq, op, 0, 0),
			local(LocalResolve, op, seq, 4, 1),
		}},
		{"the Release an abort owes is missing", 6, "diverged", []Event{
			local(LocalInitiate, op, seq, 6, 2, two),
			sent(1, wire.FreezeReq, seq, op, 0, 0),
			sent(2, wire.FreezeReq, seq, op, 0, 0),
			got(1, wire.FreezeAck, seq, op, 2, 0),
			got(2, wire.FreezeBusy, seq, op, 0, 0),
			local(LocalAbort, op, seq, 6, abortPeerFrozen),
			local(LocalInitiate, 2, 2, 6, 1, two),
		}},
	})
}

// TestPartialOperationsAuditClean: an operation over fewer partners than
// it asked — one answered Busy, or stayed silent past the reply timeout —
// is legal, its zero-delta transfer draws no TransferAck, and an ack that
// arrives after the timeout ended its collect draws a Release. None of it
// is a divergence.
func TestPartialOperationsAuditClean(t *testing.T) {
	evs := []Event{
		// Partner 1 acks with our own load, partner 2 is busy: balance with 1.
		local(LocalInitiate, 9, 1, 4, 2),
		sent(1, wire.FreezeReq, 1, 9, 0, 0),
		sent(2, wire.FreezeReq, 1, 9, 0, 0),
		got(1, wire.FreezeAck, 1, 9, 4, 0),
		got(2, wire.FreezeBusy, 1, 9, 0, 0),
		local(LocalResolve, 9, 1, 4, 1),
		sent(1, wire.Transfer, 1, 9, 0, 0),
		// No TransferAck follows. Next: partner 1 acks, the timeout ends the
		// collect, and partner 2's ack lands after it.
		local(LocalInitiate, 10, 2, 4, 2),
		sent(1, wire.FreezeReq, 2, 10, 0, 0),
		sent(2, wire.FreezeReq, 2, 10, 0, 0),
		got(1, wire.FreezeAck, 2, 10, 10, 0),
		local(LocalResolve, 10, 2, 7, 1, 1),
		sent(1, wire.Transfer, 2, 10, 0, -3),
		got(2, wire.FreezeAck, 2, 10, 1, 0),
		sent(2, wire.Release, 2, 10, 0, 0),
		got(1, wire.TransferAck, 2, 10, 0, 0),
		local(LocalInitiate, 11, 4, 7, 2),
	}
	for i := range evs {
		evs[i].WallNS = int64(i + 1)
	}
	res := audited(t, evs)
	if len(res.Violations) != 0 {
		t.Fatalf("partial operations flagged as violations: %v", res.Violations)
	}
	if a := res.Nodes[0]; a.Initiated != 3 || a.Resolved != 2 || a.Aborted != 0 || a.Unverified != 0 {
		t.Fatalf("replayed %d initiated, %d resolved, %d aborted, %d unverified; want 3, 2, 0, 0",
			a.Initiated, a.Resolved, a.Aborted, a.Unverified)
	}
}

// TestDropsAreJournaled: a LocalDrops record, which older recordings
// carry where records were lost, is counted and excuses a collect
// short of the partners its initiate announced; without it the short
// collect is a divergence.
func TestDropsAreJournaled(t *testing.T) {
	for _, tc := range []struct {
		next  Event
		drops int64
		dirty bool
	}{
		{local(LocalDrops, 0, 1), 1, false},
		{local(LocalIngest, 0, 1), 0, true},
	} {
		evs := []Event{
			local(LocalInitiate, 9, 1, 4, 2),
			sent(1, wire.FreezeReq, 1, 9, 0, 0),
			tc.next,
		}
		for i := range evs {
			evs[i].WallNS = int64(i + 1)
		}
		res := audited(t, evs)
		if got := res.Nodes[0].Drops; got != tc.drops {
			t.Errorf("after %s: Drops = %d, want %d", tc.next.Kind, got, tc.drops)
		}
		if dirty := len(res.Violations) != 0; dirty != tc.dirty {
			t.Errorf("after %s: violations %v, want dirty=%v", tc.next.Kind, res.Violations, tc.dirty)
		}
	}
}
