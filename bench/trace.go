package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/wire"
)

// The traced pass interposes bench-owned wrappers at the layer
// boundaries the programs expose — a wire.Transport around each node's
// cluster link, the ServeHooks between a front-end and its node, and
// the load client itself — and records spans there. Nothing inside the
// programs is instrumented. Every wrapper aggregates self times and
// counts for all traffic; whole spans are kept only for a 1-in-
// spanSample slice of jobs and operations, so the trace file stays a
// few megabytes while the aggregates stay exact.

const (
	spanSample = 64
	maxSpans   = 200_000
)

// span is one timed interval at a layer boundary. Spans of one job or
// balancing operation share Trace; Parent is the span that caused this
// one (0 for a root).
type span struct {
	Name   string   `json:"name"`
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent"`
	Trace  uint64   `json:"trace"`
	Node   int      `json:"node"`
	Start  int64    `json:"start_ns"` // unix nanoseconds
	End    int64    `json:"end_ns"`
	SelfNS int64    `json:"self_ns"` // duration minus the part child spans cover
	Attr   spanAttr `json:"attr,omitempty"`
}

type spanAttr map[string]float64

// tracer collects spans in memory and writes them out at the end.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID uint64
}

func (t *tracer) id() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return
	}
	if s.ID == 0 {
		t.nextID++
		s.ID = t.nextID
	}
	t.spans = append(t.spans, s)
}

// finish computes every span's self time: its duration minus the union
// of its direct children's intervals, clipped to the span.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNS = s.End - s.Start - coveredNS(s.Start, s.End, t.spans, children[s.ID])
	}
}

// coveredNS is the length of the union of the given child spans'
// intervals inside [start, end].
func coveredNS(start, end int64, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	// Insertion sort: a span has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var covered, reach int64
	reach = start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		if v.lo > reach {
			reach = v.lo
		}
		covered += v.hi - reach
		reach = v.hi
	}
	return covered
}

// write stores the spans as JSON Lines under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	t.finish()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// tracedTransport wraps one node's cluster link. Send runs on the
// node's goroutine, so the send-side tallies need no lock; the receive
// side belongs to the pump goroutine until Close has joined it.
type tracedTransport struct {
	inner wire.Transport
	node  int
	tr    *tracer
	out   chan wire.Msg
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once

	sendSelf  lhist
	sentKind  [16]int64
	sentBytes int64

	inboxWait lhist
	recvd     int64
}

// pumpDepth bounds the wrapper's timestamped hand-off queue. Past it
// the pump stops reading and the inner transport's own backpressure
// applies, as it would without the wrapper.
const pumpDepth = 4096

func traceTransport(tr *tracer, node int, inner wire.Transport) *tracedTransport {
	t := &tracedTransport{
		inner: inner, node: node, tr: tr,
		out: make(chan wire.Msg), stop: make(chan struct{}), done: make(chan struct{}),
	}
	go t.pump()
	return t
}

func (t *tracedTransport) Send(to int, m wire.Msg) error {
	start := time.Now()
	err := t.inner.Send(to, m)
	end := time.Now()
	t.sendSelf.add(int64(end.Sub(start)))
	if int(m.Kind) < len(t.sentKind) {
		t.sentKind[m.Kind]++
	}
	t.sentBytes += int64(wire.EncodedSize(m))
	if m.Op != 0 && m.Op%spanSample == 0 {
		t.tr.add(span{
			Name: "wire.send." + m.Kind.String(), Trace: m.Op, Node: t.node,
			Start: start.UnixNano(), End: end.UnixNano(),
			Attr: spanAttr{"to": float64(to)},
		})
	}
	return err
}

func (t *tracedTransport) Inbox() <-chan wire.Msg { return t.out }

func (t *tracedTransport) Stats() wire.Stats { return t.inner.Stats() }

// PeerStats keeps the cluster's link_down attribution working under
// the wrapper.
func (t *tracedTransport) PeerStats(id int) wire.Stats {
	if ps, ok := t.inner.(wire.PeerStatser); ok {
		return ps.PeerStats(id)
	}
	return wire.Stats{}
}

func (t *tracedTransport) Close() error {
	err := t.inner.Close()
	t.once.Do(func() { close(t.stop) })
	<-t.done
	return err
}

type stampedMsg struct {
	m  wire.Msg
	at time.Time
}

// pump moves frames from the inner inbox to the node, timing how long
// each waits for the node loop to take it.
func (t *tracedTransport) pump() {
	defer close(t.done)
	var q []stampedMsg
	in := t.inner.Inbox()
	for {
		var out chan wire.Msg
		var head wire.Msg
		if len(q) > 0 {
			out, head = t.out, q[0].m
		}
		src := in
		if len(q) >= pumpDepth {
			src = nil
		}
		select {
		case <-t.stop:
			return
		case m, ok := <-src:
			if !ok {
				in = nil
				continue
			}
			q = append(q, stampedMsg{m, time.Now()})
		case out <- head:
			now := time.Now()
			t.inboxWait.add(int64(now.Sub(q[0].at)))
			t.recvd++
			if head.Op != 0 && head.Op%spanSample == 0 {
				t.tr.add(span{
					Name: "cluster.inbox_wait." + head.Kind.String(), Trace: head.Op, Node: t.node,
					Start: q[0].at.UnixNano(), End: now.UnixNano(),
				})
			}
			q[0] = stampedMsg{}
			q = q[1:]
		}
	}
}

// tracedHooks wraps the ServeHooks between a front-end and its node:
// the Ingest channel through a timestamping pump, Complete with a
// self-time tally. Complete runs on the node goroutine.
type tracedHooks struct {
	stop chan struct{}
	done chan struct{}

	handoff      lhist // front-end pushed a Submit → the node took it
	completeSelf lhist
}

type stampedSubmit struct {
	s  cluster.Submit
	at time.Time
}

func traceHooks(inner *cluster.ServeHooks) (*tracedHooks, *cluster.ServeHooks) {
	h := &tracedHooks{stop: make(chan struct{}), done: make(chan struct{})}
	out := make(chan cluster.Submit)
	go h.pump(inner.Ingest, out)
	return h, &cluster.ServeHooks{
		Ingest: out,
		Complete: func(id uint64, j cluster.Journey) {
			start := time.Now()
			inner.Complete(id, j)
			h.completeSelf.add(int64(time.Since(start)))
		},
	}
}

func (h *tracedHooks) pump(in <-chan cluster.Submit, outCh chan<- cluster.Submit) {
	defer close(h.done)
	var q []stampedSubmit
	for {
		var out chan<- cluster.Submit
		var head cluster.Submit
		if len(q) > 0 {
			out, head = outCh, q[0].s
		}
		src := in
		if len(q) >= pumpDepth {
			src = nil
		}
		select {
		case <-h.stop:
			return
		case s := <-src:
			q = append(q, stampedSubmit{s, time.Now()})
		case out <- head:
			h.handoff.add(int64(time.Since(q[0].at)))
			q = q[1:]
		}
	}
}

// close stops the pump; the tallies are safe to read afterwards.
func (h *tracedHooks) close() {
	close(h.stop)
	<-h.done
}
