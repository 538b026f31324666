package flight

import (
	"lmbalance/internal/wire"
)

// Tap wraps a transport so every frame sent through it is recorded,
// synchronously, before it reaches the inner transport. Receives are not
// the tap's: the node records each frame where it processes it (see
// cluster.Config.Flight), so a node's stream is in processing order and
// a replayed machine sees exactly what the node saw. Inbox is the inner
// transport's. A nil recorder returns the inner transport unchanged.
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

func (t *tap) Send(to int, m wire.Msg) error {
	t.rec.RecordSend(to, m)
	return t.Transport.Send(to, m)
}
