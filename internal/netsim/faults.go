package netsim

import (
	"cmp"
	"fmt"
)

// Faults configures the fault-injection layer of the network. Only the
// four handshake control kinds (FreezeReq, FreezeAck, FreezeBusy,
// Release) are exposed to it: they can be dropped, held back, and are
// lost at a crashed node. Transfer, TransferAck, Idle, Quit and Bye are
// always delivered the next tick, even to a crashed node — load lives
// in stable storage — so packet conservation stays exact and the
// shutdown completes under any fault pattern. The machine's two
// timeouts keep the protocol live. The zero value disables the layer:
// no frame is late and no timeout fires. Fault draws come from their
// own streams, so arming faults never perturbs a workload or partner
// draw. Delays, timeouts and crash windows count ticks.
type Faults struct {
	// DropP is the probability that a control frame is lost in transit.
	DropP float64
	// DelayMax, if positive, holds each control frame back a uniform
	// 0..DelayMax extra ticks on its way to the receiver.
	DelayMax int
	// Crashes schedules fail-stop crash/recover windows: a crashed node
	// takes no turns and loses the control frames addressed to it.
	Crashes []Crash
	// TimeoutTicks is how long an initiator waits for outstanding freeze
	// replies. 0 selects the default (50).
	TimeoutTicks int
	// FreezeTicks is how long a frozen partner waits for its release or
	// transfer before unfreezing itself — the escape hatch for a crashed
	// initiator's peers. 0 selects the default (4 × TimeoutTicks). A
	// freeze shorter than the initiator's collect plus the transfer's
	// delivery lets a late transfer land after the partner has released
	// itself: its load can then go negative, although conservation still
	// holds (cluster.Config.FreezeTimeout).
	FreezeTicks int
	// Seed drives all fault draws.
	Seed uint64
}

// Crash is one scheduled fail-stop window: Node crashes at its first
// turn after completing AtStep workload steps — mid-protocol, maybe — and
// stays down DownTicks ticks (0 selects 400).
type Crash struct {
	Node, AtStep, DownTicks int
}

// Defaults (see Faults); maxDelayTicks bounds the mailbox ring.
const (
	defaultTimeoutTicks = 50
	defaultDownTicks    = 400
	maxDelayTicks       = 1 << 16
)

// validate checks the fault section against the node count.
func (f *Faults) validate(n int) error {
	switch {
	case f.DropP < 0 || f.DropP > 1:
		return fmt.Errorf("netsim: fault DropP = %v outside [0,1]", f.DropP)
	case f.DelayMax < 0 || f.DelayMax > maxDelayTicks:
		return fmt.Errorf("netsim: fault DelayMax = %d, need 0..%d", f.DelayMax, maxDelayTicks)
	case f.TimeoutTicks < 0 || f.FreezeTicks < 0:
		return fmt.Errorf("netsim: fault timeouts must be >= 0")
	}
	for _, c := range f.Crashes {
		if c.Node < 0 || c.Node >= n || c.AtStep < 0 || c.DownTicks < 0 {
			return fmt.Errorf("netsim: crash %+v invalid with %d nodes", c, n)
		}
	}
	return nil
}

// timeouts returns the reply and freeze timeouts with defaults applied:
// the freeze outlasts several reply timeouts, so that the initiator's own
// timeout and explicit release win in the common case.
func (f *Faults) timeouts() (reply, freeze int64) {
	reply = int64(cmp.Or(f.TimeoutTicks, defaultTimeoutTicks))
	return reply, cmp.Or(int64(f.FreezeTicks), 4*reply)
}
