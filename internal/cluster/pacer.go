package cluster

import (
	"fmt"
	"time"

	"lmbalance/internal/rng"
)

// PaceMode selects the initiation-pacing policy of a node. Pacing
// exists because of a measured wire-level pathology (EXPERIMENTS.md,
// abortanatomy): over real sockets the collect phase is ~27× wider
// than in-process, so the freeze window of every balancing operation
// is socket-latency wide, free-running nodes are engaged most of the
// time, and most of the partners an initiator asks answer Busy. One
// busy partner only drops out of the operation (see internal/proto);
// the attempt that finds them all busy is the peer_frozen abort, and at
// n=16 over sockets that is still most attempts — at a few dozen
// messages per completed operation where pacing gets by on eight.
type PaceMode int

const (
	// PaceFixed is the zero value and the pre-controller behavior:
	// MinInitGap, when positive, is a constant wall-clock floor between
	// a node's own initiations; with MinInitGap zero there is no pacing
	// at all. It is a blunt valve — measured to defer ~99% of triggers
	// on short runs when sized for collision avoidance.
	PaceFixed PaceMode = iota
	// PaceOff disables pacing entirely, even with MinInitGap set.
	PaceOff
	// PaceAdaptive runs the AIMD controller: the gap grows
	// multiplicatively on peer_frozen aborts (collision evidence: every
	// partner asked was engaged) and
	// shrinks additively on successful collects, with MinInitGap as an
	// optional lower bound. Each node adapts on purely local signals,
	// in the congestion-control tradition.
	PaceAdaptive
)

func (m PaceMode) String() string {
	switch m {
	case PaceFixed:
		return "fixed"
	case PaceOff:
		return "off"
	case PaceAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("PaceMode(%d)", int(m))
}

// ParsePaceMode parses the -pace flag values.
func ParsePaceMode(s string) (PaceMode, error) {
	switch s {
	case "fixed":
		return PaceFixed, nil
	case "off":
		return PaceOff, nil
	case "adaptive":
		return PaceAdaptive, nil
	}
	return PaceFixed, fmt.Errorf("unknown pace mode %q (off, fixed, adaptive)", s)
}

// Adaptive-pacer defaults. The controller needs no tuning to engage:
// the *seed* of the backoff is the measured width of the aborted
// collect phase (the protocol's own vulnerability window, the analog of
// an RTT), so the gap is born at the right order of magnitude on any
// transport and these knobs only bound and shape the adaptation.
const (
	// DefaultPaceMaxGap caps the backoff: one node's unlucky streak
	// must not park it out of the balancing economy for good. It is
	// sized for the worst congested attempt widths observed on a
	// single-core box (~10ms end to end, pure scheduler latency): every
	// attempt holds three nodes busy for that width, so n contenders
	// need a mean gap of several n·widths before collisions get rare.
	DefaultPaceMaxGap = 250 * time.Millisecond
	// DefaultPaceMult is the multiplicative increase per peer_frozen
	// abort — the classic doubling.
	DefaultPaceMult = 2.0
	// DefaultPaceDec is the *floor* of the additive decrease per
	// successful collect. The actual step is the successful attempt's
	// own elapsed width when that is larger — one attempt-width per
	// success, the analog of TCP's one-segment-per-RTT — so recovery is
	// scale-free: µs-size steps on an in-process transport, ms-size
	// steps on sockets, without retuning. The live abort-rate estimate
	// scales the step down while collisions are still being observed
	// (see pacer.onOutcome).
	DefaultPaceDec = 250 * time.Microsecond
	// paceEWMAAlpha weights the per-reason abort-rate EWMAs: ~the last
	// 1/alpha protocol outcomes dominate the estimate.
	paceEWMAAlpha = 0.2
	// paceSalt separates the pacer's jitter rng stream from the node's
	// workload and op-id streams (which are seeded off the same mix).
	paceSalt = 0x70616365 // "pace"
)

// pacer is one node's initiation controller. It is owned by the node
// goroutine (no locking); the observable side — the live gap gauge and
// the backoff/recovery counters — is published through nodeMetrics.
//
// The adaptive policy is AIMD on the initiation gap:
//
//   - A peer_frozen abort is collision evidence: the gap multiplies by
//     mult, seeded with the elapsed collect time of the aborted attempt
//     when the gap is still below it (first collision on a fresh node
//     jumps straight to one vulnerability-window width rather than
//     crawling up from zero).
//   - A successful collect shrinks the gap additively by dec, scaled by
//     (1 − EWMA[peer_frozen]): while the live abort-rate estimate is
//     still high, recovery is cautious; once collisions stop, the gap
//     drains at full speed and pacing gets out of the way. This is what
//     keeps the controller from the fixed knob's failure mode of
//     deferring ~99% of triggers after the storm has passed.
//   - Timeout/stale_epoch/link_down aborts update the estimates but do
//     not grow the gap: a dead peer or a dropped frame is not evidence
//     that initiations are colliding.
//
// The gap is clamped to [minGap, maxGap]; fixed mode pins it at minGap
// and off mode at zero. The *enforced* gap is the AIMD gap jittered
// uniformly over [½gap, 1½gap), redrawn per outcome from a dedicated
// rng stream: nodes that collided together back off by the same factor
// at the same moment, and without randomization the whole cohort would
// retry in lockstep and collide again forever (Ethernet's lesson).
type pacer struct {
	mode   PaceMode
	n      int // cluster size: scales the collision-seeded backoff
	delta  int // partners per attempt: scales the per-attempt footprint
	minGap time.Duration
	maxGap time.Duration
	mult   float64
	dec    time.Duration
	rng    *rng.RNG

	gap    time.Duration // AIMD state
	effGap time.Duration // jittered gap currently enforced
	// ewma holds the live per-reason abort-rate estimates over protocol
	// outcomes, keyed like the abort counters; "" tracks nothing (a
	// success decays every reason toward zero).
	ewma map[string]float64
}

func newPacer(cfg *Config) pacer {
	p := pacer{
		mode:   cfg.Pace,
		n:      cfg.N,
		delta:  cfg.Delta,
		minGap: cfg.MinInitGap,
		maxGap: cfg.PaceMaxGap,
		mult:   cfg.PaceMult,
		dec:    cfg.PaceDec,
		// The jitter stream is salted off the node's seed mix so pacing
		// never perturbs the workload's Bernoulli draws or the op ids.
		rng:  rng.New(rng.Mix64(rng.Mix64(cfg.Seed, uint64(cfg.ID)), paceSalt)),
		ewma: make(map[string]float64, 4),
	}
	if p.maxGap == 0 {
		p.maxGap = DefaultPaceMaxGap
	}
	if p.mult == 0 {
		p.mult = DefaultPaceMult
	}
	if p.dec == 0 {
		p.dec = DefaultPaceDec
	}
	switch p.mode {
	case PaceOff:
		p.gap = 0
	default:
		// Fixed pins the gap at the floor; adaptive starts there too —
		// no pre-emptive deferral, the controller only backs off once a
		// collision is actually observed.
		p.gap = p.minGap
	}
	p.effGap = p.gap
	return p
}

// gapNow returns the interval the next initiation must keep from the
// previous one (0 = unpaced). Adaptive mode enforces the jittered gap.
func (p *pacer) gapNow() time.Duration {
	if p.mode == PaceOff {
		return 0
	}
	if p.mode == PaceAdaptive {
		return p.effGap
	}
	return p.gap
}

// jitter redraws the enforced gap uniformly over [0, 2·gap), bounded
// below by the configured floor. Full-range randomization (mean = gap,
// so the AIMD state keeps its meaning) rather than a narrow band: abort
// bursts are service-synchronized — every attempt of a collision wave
// learns its fate in the same scheduling round — and a ±50% band around
// a shared gap re-bunches the retries into the next wave. The uniform
// draw from zero also grants occasional near-immediate probes, which on
// success feed the additive decrease (free measurements).
func (p *pacer) jitter() {
	if p.gap <= 0 {
		p.effGap = 0
		return
	}
	g := time.Duration(2 * p.rng.Float64() * float64(p.gap))
	if g < p.minGap {
		g = p.minGap
	}
	p.effGap = g
}

// AbortRate returns the live EWMA abort-rate estimate for one reason
// (the fraction of recent protocol outcomes aborted for it).
func (p *pacer) AbortRate(reason string) float64 { return p.ewma[reason] }

// onOutcome feeds one finished protocol attempt into the controller.
// reason is "" for a successful collect or one of the Abort* labels;
// elapsed is the attempt's initiate→outcome wall time. It returns what
// the gap did, so the caller can bump the transition counters:
// +1 backoff, −1 recovery, 0 no change.
func (p *pacer) onOutcome(reason string, elapsed time.Duration) int {
	for _, r := range [...]string{AbortPeerFrozen, AbortTimeout, AbortStaleEpoch, AbortLinkDown} {
		hit := 0.0
		if r == reason {
			hit = 1.0
		}
		p.ewma[r] += paceEWMAAlpha * (hit - p.ewma[r])
	}
	if p.mode != PaceAdaptive {
		return 0
	}
	switch reason {
	case AbortPeerFrozen:
		// The seed jumps straight to binary exponential backoff's
		// converged spread instead of climbing to it one collision at a
		// time: the aborted attempt's own elapsed width is the collision
		// window (the analog of a slot time), every attempt occupies
		// δ+1 nodes for that window, and in the worst case all n−1 peers
		// are contending — so (δ+1)·(n−1) windows of spread is what
		// makes the retries miss each other. Over-backing-off a lightly
		// contended cluster costs little — the full-range jitter still
		// grants quick probes and each success drains the gap — while
		// under-seeding costs a re-collision per doubling on the way up.
		seed := time.Duration((p.delta+1)*(p.n-1)) * elapsed
		next := time.Duration(float64(p.gap) * p.mult)
		if next < seed {
			next = seed
		}
		p.gap = clampGap(next, p.minGap, p.maxGap)
		p.jitter()
		return +1
	case "":
		// One measured attempt-width per success (with the configured
		// floor), scaled down while the abort-rate estimate is still hot.
		step := elapsed
		if step < p.dec {
			step = p.dec
		}
		dec := time.Duration(float64(step) * (1 - p.ewma[AbortPeerFrozen]))
		if p.gap <= p.minGap || dec <= 0 {
			p.jitter()
			return 0
		}
		p.gap = clampGap(p.gap-dec, p.minGap, p.maxGap)
		p.jitter()
		return -1
	}
	return 0
}

func clampGap(g, lo, hi time.Duration) time.Duration {
	if g < lo {
		return lo
	}
	if g > hi {
		return hi
	}
	return g
}
