package flight

import (
	"lmbalance/internal/wire"
)

// This file is the recorder's wall-clock adapter, as cluster.Node's loop
// is the node's: a live node cannot wait on a disk write, so Tap puts a
// buffered channel and one writer goroutine between its recording calls
// and the segment (see the package doc for drops and their journal).

// Tap wraps a live transport so every frame sent through it is recorded
// before it reaches the inner transport, and starts the recorder's
// wall-clock adapter. A tapped send is stamped with the node's latest
// recorded time. Receives are not the tap's: the node records each frame
// where it processes it (see cluster.Config.Flight), so a node's stream
// is in processing order and a replayed machine sees exactly what the
// node saw. Inbox is the inner transport's. A nil recorder returns the
// inner transport unchanged.
func (r *Recorder) Tap(inner wire.Transport) wire.Transport {
	if r == nil {
		return inner
	}
	r.startWriter()
	return &tap{Transport: inner, rec: r}
}

type tap struct {
	wire.Transport
	rec *Recorder
}

func (t *tap) Send(to int, m wire.Msg) error {
	t.rec.RecordSend(t.rec.last.Load(), to, m)
	return t.Transport.Send(to, m)
}

// startWriter attaches the wall-clock adapter, once: from here on every
// record travels through the channel to run, which does all file I/O.
func (r *Recorder) startWriter() {
	r.start.Do(func() {
		r.ch = make(chan pending, r.opts.Buffer)
		r.stop, r.done, r.snap = make(chan struct{}), make(chan struct{}), make(chan snapReq)
		go r.run()
	})
}

// queue hands one record to the writer, dropping (and counting) it
// when the buffer is full.
func (r *Recorder) queue(p pending, tail *[]byte) {
	select {
	case r.ch <- p:
		r.records.Add(1)
	default:
		r.gap.Add(p.gap + 1)
		r.dropped.Add(1)
		r.pool.Put(tail)
	}
}

// run is the writer goroutine.
func (r *Recorder) run() {
	defer close(r.done)
	for {
		select {
		case p := <-r.ch:
			r.write(p)
		case req := <-r.snap:
			// Everything recorded before the snapshot request must be in
			// it (select order is random), so drain the queue first.
			r.drain()
			r.seal()
			dir, err := r.takeSnapshot(req.reason)
			req.reply <- snapResult{dir: dir, err: err}
		case <-r.stop:
			// Journal a trailing gap (drops with no record after them)
			// before sealing, so the stream accounts for every record
			// offered to it.
			r.drain()
			r.journal(r.last.Load(), r.gap.Swap(0))
			r.seal()
			return
		}
	}
}

// drain writes every queued record.
func (r *Recorder) drain() {
	for {
		select {
		case p := <-r.ch:
			r.write(p)
		default:
			return
		}
	}
}
