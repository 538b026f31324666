package netsim

import "fmt"

// Faults configures the fault-injection layer of the network. The zero
// value disables it entirely: with no drops, no delays and no crashes
// every frame arrives one tick after it was sent and no timeout fires.
//
// Fault randomness draws from its own seeded stream (Seed), independent
// of Config.Seed, so enabling faults never perturbs the workload or the
// partner-selection streams.
//
// Delays, timeouts and crash durations all count ticks of the
// simulation's virtual clock (see the package comment).
type Faults struct {
	// DropP is the probability that a control message (freezeReq,
	// freezeAck, freezeBusy, release) is lost in transit. Transfer
	// messages are always delivered reliably, so packet conservation
	// stays exact under any drop rate.
	DropP float64
	// DelayMax, if positive, holds each message back a uniform
	// 0..DelayMax extra ticks on its way to the receiver.
	DelayMax int
	// Crashes schedules fail-stop crash/recover windows. A crashed node
	// performs no workload steps and answers no control messages (they
	// are lost at the dead node); incoming transfers are applied to its
	// persistent load — load units live in stable storage, mirroring the
	// fail-stop model of Gilbert–Meir–Paz style dynamic-network analyses.
	Crashes []Crash
	// TimeoutTicks is how many ticks an initiator waits for outstanding
	// freeze replies before it goes ahead with the partners that acked
	// (or, with none, aborts and re-arms with randomized backoff).
	// 0 selects the default (50).
	TimeoutTicks int
	// FreezeTicks is how long a frozen partner waits for its release or
	// transfer before unfreezing itself — the escape hatch that keeps a
	// crashed initiator's peers from leaking frozen. 0 selects the
	// default (4 × TimeoutTicks).
	FreezeTicks int
	// Seed drives all fault randomness (drop and delay draws).
	Seed uint64
}

// Crash is one scheduled fail-stop window.
type Crash struct {
	// Node is the processor that crashes.
	Node int
	// AtStep triggers the crash once the node has completed this many
	// workload steps (the crash may strike mid-protocol: an initiator
	// abandons its partners without releasing them, a frozen partner
	// silently forgets its freeze).
	AtStep int
	// DownTicks is how long the node stays dead before recovering.
	// 0 selects the default (400).
	DownTicks int
}

// Default fault-layer parameters (see the field docs on Faults).
const (
	defaultTimeoutTicks = 50
	defaultDownTicks    = 400
	// maxDelayTicks bounds DelayMax: the mailbox keeps one delivery slot
	// per tick a frame can be scheduled ahead.
	maxDelayTicks = 1 << 16
)

// validate checks the fault section against the node count.
func (f *Faults) validate(n int) error {
	if f.DropP < 0 || f.DropP > 1 {
		return fmt.Errorf("netsim: fault DropP = %v outside [0,1]", f.DropP)
	}
	if f.DelayMax < 0 || f.DelayMax > maxDelayTicks {
		return fmt.Errorf("netsim: fault DelayMax = %d, need 0..%d", f.DelayMax, maxDelayTicks)
	}
	if f.TimeoutTicks < 0 || f.FreezeTicks < 0 {
		return fmt.Errorf("netsim: fault timeouts must be >= 0")
	}
	for _, c := range f.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("netsim: crash schedules node %d, have %d nodes", c.Node, n)
		}
		if c.AtStep < 0 || c.DownTicks < 0 {
			return fmt.Errorf("netsim: crash window %+v has negative timing", c)
		}
	}
	return nil
}

// timeoutTicks returns the initiator reply timeout with defaults applied.
func (f *Faults) timeoutTicks() int64 {
	if f.TimeoutTicks > 0 {
		return int64(f.TimeoutTicks)
	}
	return defaultTimeoutTicks
}

// freezeTicks returns the frozen-partner self-release timeout with
// defaults applied. It is deliberately several initiator timeouts long so
// that in the common case the initiator's own timeout (and its explicit
// release) wins; self-release is the last resort for a crashed initiator.
func (f *Faults) freezeTicks() int64 {
	if f.FreezeTicks > 0 {
		return int64(f.FreezeTicks)
	}
	return 4 * f.timeoutTicks()
}
