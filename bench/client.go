package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lmbalance/internal/wire"
)

// loadClient is the benchmark's load generator: one goroutine driving
// one connection per front-end it submits to, plus one reader goroutine
// per connection. It speaks the client codec directly instead of going
// through serve.Client because it times every job on its own clock —
// from the instant the job was due (open loop) or sent (closed loop) to
// the arrival of its CDone — and serve.Client only reports the server's
// stamps.
type loadClient struct {
	conns []*clientConn
	start time.Time
	wg    sync.WaitGroup
}

type clientConn struct {
	nc    net.Conn
	bw    *bufio.Writer
	buf   []byte
	dirty bool
}

func dialClients(addrs []string) (*loadClient, error) {
	lc := &loadClient{}
	for _, a := range addrs {
		nc, err := net.Dial("tcp", a)
		if err != nil {
			lc.close()
			return nil, fmt.Errorf("dial front-end %s: %w", a, err)
		}
		lc.conns = append(lc.conns, &clientConn{nc: nc, bw: bufio.NewWriter(nc)})
	}
	return lc, nil
}

// close hangs up and waits for the readers to exit.
func (lc *loadClient) close() {
	for _, c := range lc.conns {
		c.nc.Close()
	}
	lc.wg.Wait()
}

func (lc *loadClient) submit(ci int, tag uint64, units int) error {
	c := lc.conns[ci]
	c.buf = wire.AppendCFrame(c.buf[:0], wire.CMsg{Kind: wire.CSubmit, Job: tag, Units: units})
	c.dirty = true
	_, err := c.bw.Write(c.buf)
	return err
}

func (lc *loadClient) flush() error {
	for _, c := range lc.conns {
		if c.dirty {
			c.dirty = false
			if err := c.bw.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// openRec is one open-loop job's client-side timeline, nanoseconds
// since the start of the rung; 0 means "never happened".
type openRec struct {
	sent, accepted, done int64
}

type openResult struct {
	startUnix int64 // unix nanoseconds of offset 0
	due       []time.Duration
	conn      []int
	recs      []openRec
	late      lhist // sent − due, every job
	deadline  int64 // offset at which the generator stopped waiting
}

// finished reports whether job i completed before the generator gave up.
func (r *openResult) finished(i int) bool {
	return r.recs[i].done != 0 && r.recs[i].done <= r.deadline
}

// runOpen replays jobs on their schedule regardless of how the cluster
// keeps up, then waits up to drain for the stragglers. The readers keep
// recording until the front-ends hang up, so close — after the cluster
// has been stopped — is what makes recs final; a job whose done is 0 or
// past deadline was unfinished when the generator gave up.
func (lc *loadClient) runOpen(jobs []openJob, drain time.Duration) (*openResult, error) {
	res := &openResult{recs: make([]openRec, len(jobs))}
	var completed atomic.Int64
	for _, j := range jobs {
		res.due = append(res.due, j.due)
		res.conn = append(res.conn, j.conn)
	}
	lc.start = time.Now()
	res.startUnix = lc.start.UnixNano()
	for _, c := range lc.conns {
		lc.wg.Add(1)
		go func(c *clientConn) {
			defer lc.wg.Done()
			br := bufio.NewReader(c.nc)
			for {
				m, _, err := wire.ReadCFrame(br)
				if err != nil {
					return
				}
				if m.Job < 1 || m.Job > uint64(len(res.recs)) {
					continue
				}
				at := int64(time.Since(lc.start)) + 1
				switch m.Kind {
				case wire.CAccepted:
					res.recs[m.Job-1].accepted = at
				case wire.CDone:
					res.recs[m.Job-1].done = at
					completed.Add(1)
				}
			}
		}(c)
	}
	for i, j := range jobs {
		for {
			wait := j.due - time.Since(lc.start)
			if wait <= 0 {
				break
			}
			if err := lc.flush(); err != nil {
				return nil, fmt.Errorf("open loop flush: %w", err)
			}
			time.Sleep(wait)
		}
		now := time.Since(lc.start)
		res.recs[i].sent = int64(now) + 1
		res.late.add(int64(now - j.due))
		if err := lc.submit(j.conn, uint64(i+1), j.units); err != nil {
			return nil, fmt.Errorf("open loop submit: %w", err)
		}
	}
	if err := lc.flush(); err != nil {
		return nil, fmt.Errorf("open loop flush: %w", err)
	}
	deadline := time.Now().Add(drain)
	for completed.Load() < int64(len(jobs)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res.deadline = int64(time.Since(lc.start)) + 1
	return res, nil
}

// closedEvt is a reader's report to the generator.
type closedEvt struct {
	conn     int
	tag      uint64
	at       time.Duration
	accepted bool // CAccepted (traced pass only) rather than CDone
}

type closedResult struct {
	soj        []uint32 // sojourn ns of jobs completed inside the window, in completion order
	subEnds    []int    // len(soj) at each sub-window boundary
	sub        time.Duration
	submitted  int64
	completed  int64 // seen by the generator before it gave up
	unfinished int64
	doneFrames atomic.Int64  // every CDone the readers saw, up to hang-up
	warm       time.Duration // how long the warm-up's completions took
	acceptRTT  lhist         // send → CAccepted (traced pass only)
}

// runClosed keeps window jobs of one unit outstanding on every
// connection. The first warmJobs completions are the warm-up; the
// measurement window is the dur that follows, after which it stops
// submitting and waits up to drain for the rest. Only completions
// inside the window are recorded.
func (lc *loadClient) runClosed(window, warmJobs int, dur, sub, drain time.Duration, tr *tracer) (*closedResult, error) {
	traced := tr != nil
	// Room for 300 000 completions a second up front: growing by doubling
	// would make the benchmark's own garbage part of peak_rss_mb. Untouched
	// capacity is never resident.
	res := &closedResult{sub: sub, soj: make([]uint32, 0, int(dur.Seconds()*300e3)+1024)}
	// Readers hand every frame to the generator, which owns all the
	// bookkeeping; the buffer holds a full window per connection so a
	// reader only waits when the generator is the bottleneck.
	events := make(chan closedEvt, 2*window*len(lc.conns))
	// Once the generator returns nobody receives events; the readers
	// then only count CDone frames until the front-ends hang up.
	quit := make(chan struct{})
	defer close(quit)
	lc.start = time.Now()
	startUnix := lc.start.UnixNano()
	acceptedAt := map[[2]uint64]time.Duration{} // sampled jobs only
	for ci, c := range lc.conns {
		lc.wg.Add(1)
		go func(ci int, c *clientConn) {
			defer lc.wg.Done()
			br := bufio.NewReader(c.nc)
			for {
				m, _, err := wire.ReadCFrame(br)
				if err != nil {
					return
				}
				ev := closedEvt{conn: ci, tag: m.Job, at: time.Since(lc.start), accepted: m.Kind == wire.CAccepted}
				if m.Kind == wire.CDone {
					res.doneFrames.Add(1)
				} else if !(traced && ev.accepted) {
					continue
				}
				select {
				case events <- ev:
				case <-quit:
				}
			}
		}(ci, c)
	}

	sentAt := make([]map[uint64]time.Duration, len(lc.conns))
	next := make([]uint64, len(lc.conns))
	var outstanding int
	send := func(ci int) error {
		next[ci]++
		now := time.Since(lc.start)
		sentAt[ci][next[ci]] = now
		if err := lc.submit(ci, next[ci], 1); err != nil {
			return fmt.Errorf("closed loop submit: %w", err)
		}
		outstanding++
		res.submitted++
		return nil
	}
	for ci := range lc.conns {
		sentAt[ci] = make(map[uint64]time.Duration, 2*window)
		for k := 0; k < window; k++ {
			if err := send(ci); err != nil {
				return nil, err
			}
		}
	}
	if err := lc.flush(); err != nil {
		return nil, fmt.Errorf("closed loop flush: %w", err)
	}

	// warmCap bounds a warm-up that never finishes (a wedged cluster).
	const warmCap = 30 * time.Second
	warmed := false
	end, nextSub := warmCap, warmCap
	check := time.NewTicker(50 * time.Millisecond)
	defer check.Stop()
loop:
	for outstanding > 0 {
		var ev closedEvt
		select {
		case ev = <-events:
		case <-check.C:
			if time.Since(lc.start) > end+drain {
				break loop
			}
			continue
		}
		t0, ok := sentAt[ev.conn][ev.tag]
		if !ok {
			continue
		}
		sampled := traced && ev.tag%spanSample == 0
		if ev.accepted {
			res.acceptRTT.add(int64(ev.at - t0))
			if sampled {
				acceptedAt[[2]uint64{uint64(ev.conn), ev.tag}] = ev.at
			}
			continue
		}
		if sampled {
			key := [2]uint64{uint64(ev.conn), ev.tag}
			root := tr.id()
			tr.add(span{Name: "job", ID: root, Trace: root, Node: ev.conn,
				Start: startUnix + int64(t0), End: startUnix + int64(ev.at)})
			if a, ok := acceptedAt[key]; ok {
				tr.add(span{Name: "serve.accept", Parent: root, Trace: root, Node: ev.conn,
					Start: startUnix + int64(t0), End: startUnix + int64(a)})
				delete(acceptedAt, key)
			}
		}
		delete(sentAt[ev.conn], ev.tag)
		outstanding--
		res.completed++
		if !warmed && res.completed >= int64(warmJobs) {
			warmed = true
			res.warm = ev.at
			end, nextSub = ev.at+dur, ev.at+sub
		}
		for warmed && ev.at >= nextSub && nextSub <= end {
			res.subEnds = append(res.subEnds, len(res.soj))
			nextSub += sub
		}
		if warmed && ev.at >= res.warm && ev.at < end {
			res.soj = append(res.soj, clampU32(int64(ev.at-t0)))
		}
		if ev.at < end {
			if err := send(ev.conn); err != nil {
				return nil, err
			}
		}
		// Flush whenever the generator has caught up with the readers:
		// nothing more is about to be appended to the batch.
		if len(events) == 0 {
			if err := lc.flush(); err != nil {
				return nil, fmt.Errorf("closed loop flush: %w", err)
			}
		}
	}
	for want := int(dur / sub); len(res.subEnds) < want; {
		res.subEnds = append(res.subEnds, len(res.soj))
	}
	res.unfinished = int64(outstanding)
	return res, nil
}

// clampU32 stores a nanosecond duration in 32 bits; anything beyond
// ~4.29 s reads as that ceiling, far past every limit measured here.
func clampU32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ns)
}
