package flight

import (
	"lmbalance/internal/wire"
)

// Tap wraps a live transport so every frame sent through it is recorded
// before it reaches the inner transport. A tapped send is stamped with
// the node's latest recorded time. Receives are not the tap's: the node
// records each frame where it processes it (see cluster.Config.Flight),
// so a node's stream is in processing order and a replayed machine sees
// exactly what the node saw. Inbox is the inner transport's. A nil
// recorder returns the inner transport unchanged.
func (r *Recorder) Tap(inner wire.Transport) wire.Transport {
	if r == nil {
		return inner
	}
	return &tap{Transport: inner, rec: r}
}

type tap struct {
	wire.Transport
	rec *Recorder
}

// Send records the frame at stamp 0, which put raises to the latest
// recorded time.
func (t *tap) Send(to int, m wire.Msg) error {
	t.rec.RecordSend(0, to, m)
	return t.Transport.Send(to, m)
}
