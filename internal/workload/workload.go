// Package workload generates the load patterns that drive the simulator.
//
// The paper's model (§2) lets every processor, in each global time step,
// generate one load packet, consume one locally available packet, or do
// nothing — with no assumption about the distribution of those activities.
// A Pattern decides, per processor and per step, which of the three actions
// is attempted.
//
// The package implements the paper's §7 synthetic benchmark (random phases
// (gᵢ, cᵢ, startᵢ, endᵢ) drawn from global bounds), the §3 analysis models
// (one-processor-generator and one-processor-producer-consumer), and a few
// additional adversarial patterns (bursts, hotspots) used by the extension
// experiments. A deterministic scripted pattern supports unit tests.
package workload

import (
	"fmt"

	"lmbalance/internal/rng"
)

// Action is what a processor attempts in one global time step.
type Action int8

const (
	// Idle does nothing this step.
	Idle Action = iota
	// Generate creates one new load packet on the processor.
	Generate
	// Consume removes one load packet if any is available.
	Consume
	// GenerateAndConsume does both in one step (generate first). The §7
	// phase workload draws generation and consumption independently, so
	// both can occur in the same tick — §2 explicitly allows a constant
	// number of packets per time step.
	GenerateAndConsume
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Idle:
		return "idle"
	case Generate:
		return "generate"
	case Consume:
		return "consume"
	case GenerateAndConsume:
		return "generate+consume"
	default:
		return fmt.Sprintf("Action(%d)", int8(a))
	}
}

// Pattern produces the action of processor proc at global time step t.
// Implementations draw all randomness from r so that runs are reproducible;
// a Pattern instance is used by a single simulation run at a time.
type Pattern interface {
	// Name identifies the pattern in experiment output.
	Name() string
	// Step returns the action processor proc attempts at time t.
	Step(proc, t int, r *rng.RNG) Action
}

// Sparse is an optional Pattern refinement for patterns whose activity is
// confined to a fixed small set of processors. The sharded engine uses it
// to step only the processors that can ever act, which is what makes the
// §3 one-producer model tractable at n = 10⁶ (8n global steps would
// otherwise cost 8n² pattern calls). A Sparse pattern must return Idle for
// every processor outside ActiveProcs at every step, and must not consume
// RNG state for those processors (both OneProducer and ProducerConsumer
// draw nothing for idle processors, so skipping them leaves every stream
// untouched).
type Sparse interface {
	Pattern
	// ActiveProcs returns the sorted, duplicate-free set of processors
	// that may ever return a non-Idle action.
	ActiveProcs() []int
}

// Phase is one activity window of a processor: between Start and End
// (inclusive) the processor generates with probability G and otherwise
// consumes with probability C, per step.
type Phase struct {
	G     float64 // generation probability
	C     float64 // consumption probability
	Start int     // first active step
	End   int     // last active step (inclusive)
}

// Phases is the paper's §7 synthetic benchmark. Each processor owns a list
// of phases; at step t the first phase containing t applies. Outside all
// phases the processor idles.
//
// The paper draws, for each processor, phases with gᵢ ∈ [g_l, g_h],
// cᵢ ∈ [c_l, c_h] and length endᵢ−startᵢ ∈ [len_l, len_h]; the large phase
// lengths make generation/consumption activity very inhomogeneous across
// the machine.
type Phases struct {
	name   string
	phases [][]Phase
}

// PhaseBounds are the global parameters (g_l, g_h, c_l, c_h, len_l, len_h)
// of the paper's workload description, plus the horizon to cover.
type PhaseBounds struct {
	GLow, GHigh     float64
	CLow, CHigh     float64
	LenLow, LenHigh int
	Horizon         int // phases are drawn with starts in [0, Horizon)
}

// PaperBounds returns the exact §7 parameter set: g∈[0.1,0.9], c∈[0.1,0.7],
// len∈[150,400] for a 500-step horizon.
func PaperBounds() PhaseBounds {
	return PhaseBounds{
		GLow: 0.1, GHigh: 0.9,
		CLow: 0.1, CHigh: 0.7,
		LenLow: 150, LenHigh: 400,
		Horizon: 500,
	}
}

// Validate checks the bounds for consistency.
func (b PhaseBounds) Validate() error {
	switch {
	case b.GLow < 0 || b.GHigh > 1 || b.GLow > b.GHigh:
		return fmt.Errorf("workload: invalid generation bounds [%v,%v]", b.GLow, b.GHigh)
	case b.CLow < 0 || b.CHigh > 1 || b.CLow > b.CHigh:
		return fmt.Errorf("workload: invalid consumption bounds [%v,%v]", b.CLow, b.CHigh)
	case b.LenLow < 1 || b.LenLow > b.LenHigh:
		return fmt.Errorf("workload: invalid length bounds [%d,%d]", b.LenLow, b.LenHigh)
	case b.Horizon < 1:
		return fmt.Errorf("workload: invalid horizon %d", b.Horizon)
	}
	return nil
}

// NewPhases draws a random phase plan for n processors from the bounds.
// Every processor receives consecutive random phases until the horizon is
// covered, so it is active for the whole run (as in the paper, where phases
// of length 150–400 tile the 500-step experiment).
func NewPhases(n int, b PhaseBounds, r *rng.RNG) (*Phases, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("workload: NewPhases with n=%d", n)
	}
	p := &Phases{
		name:   fmt.Sprintf("phases(g=[%g,%g],c=[%g,%g],len=[%d,%d])", b.GLow, b.GHigh, b.CLow, b.CHigh, b.LenLow, b.LenHigh),
		phases: make([][]Phase, n),
	}
	for i := 0; i < n; i++ {
		t := 0
		for t < b.Horizon {
			length := r.IntRange(b.LenLow, b.LenHigh)
			p.phases[i] = append(p.phases[i], Phase{
				G:     r.FloatRange(b.GLow, b.GHigh),
				C:     r.FloatRange(b.CLow, b.CHigh),
				Start: t,
				End:   t + length - 1,
			})
			t += length
		}
	}
	return p, nil
}

// Name implements Pattern.
func (p *Phases) Name() string { return p.name }

// Step implements Pattern: within an active phase, generation (probability
// G) and consumption (probability C) are drawn independently, exactly as
// §7 states — both can happen in one step.
func (p *Phases) Step(proc, t int, r *rng.RNG) Action {
	for _, ph := range p.phases[proc] {
		if t >= ph.Start && t <= ph.End {
			gen := r.Bernoulli(ph.G)
			con := r.Bernoulli(ph.C)
			switch {
			case gen && con:
				return GenerateAndConsume
			case gen:
				return Generate
			case con:
				return Consume
			default:
				return Idle
			}
		}
	}
	return Idle
}

// OneProducer is the §3 one-processor-generator model: processor 0
// generates one packet every step; nobody consumes. Overall system load
// grows steadily, exactly as in the analysis.
type OneProducer struct{}

// Name implements Pattern.
func (OneProducer) Name() string { return "one-producer" }

// Step implements Pattern.
func (OneProducer) Step(proc, t int, r *rng.RNG) Action {
	if proc == 0 {
		return Generate
	}
	return Idle
}

// ActiveProcs implements Sparse: only processor 0 ever acts.
func (OneProducer) ActiveProcs() []int { return []int{0} }

// ProducerConsumer is the §3 one-processor-producer-consumer model:
// processor 0 generates with probability genP and consumes with probability
// 1−genP; all other processors idle.
type ProducerConsumer struct {
	// GenP is the per-step probability that processor 0 generates (it
	// consumes otherwise).
	GenP float64
}

// Name implements Pattern.
func (p ProducerConsumer) Name() string {
	return fmt.Sprintf("producer-consumer(p=%g)", p.GenP)
}

// Step implements Pattern.
func (p ProducerConsumer) Step(proc, t int, r *rng.RNG) Action {
	if proc != 0 {
		return Idle
	}
	if r.Bernoulli(p.GenP) {
		return Generate
	}
	return Consume
}

// ActiveProcs implements Sparse: only processor 0 ever acts.
func (p ProducerConsumer) ActiveProcs() []int { return []int{0} }

// Uniform has every processor generate with probability GenP and consume
// with probability ConP each step, homogeneously.
type Uniform struct {
	GenP, ConP float64
}

// Name implements Pattern.
func (u Uniform) Name() string {
	return fmt.Sprintf("uniform(g=%.2f,c=%.2f)", u.GenP, u.ConP)
}

// Step implements Pattern.
func (u Uniform) Step(proc, t int, r *rng.RNG) Action {
	if r.Bernoulli(u.GenP) {
		return Generate
	}
	if r.Bernoulli(u.ConP) {
		return Consume
	}
	return Idle
}

// Burst alternates machine-wide between a generation burst of BurstLen
// steps (every processor generates with probability HighG) and a drain
// window of DrainLen steps (every processor consumes with probability
// HighC). An adversarial pattern for the extension experiments.
type Burst struct {
	BurstLen, DrainLen int
	HighG, HighC       float64
}

// Name implements Pattern.
func (b Burst) Name() string {
	return fmt.Sprintf("burst(%d/%d)", b.BurstLen, b.DrainLen)
}

// Step implements Pattern.
func (b Burst) Step(proc, t int, r *rng.RNG) Action {
	period := b.BurstLen + b.DrainLen
	if period <= 0 {
		return Idle
	}
	if t%period < b.BurstLen {
		if r.Bernoulli(b.HighG) {
			return Generate
		}
		return Idle
	}
	if r.Bernoulli(b.HighC) {
		return Consume
	}
	return Idle
}

// Hotspot concentrates all generation on the first Hot processors while
// every processor consumes with probability ConP — the worst case for a
// balancer because work enters the system at a single point.
type Hotspot struct {
	Hot        int
	GenP, ConP float64
}

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot(%d)", h.Hot) }

// Step implements Pattern.
func (h Hotspot) Step(proc, t int, r *rng.RNG) Action {
	if proc < h.Hot && r.Bernoulli(h.GenP) {
		return Generate
	}
	if r.Bernoulli(h.ConP) {
		return Consume
	}
	return Idle
}

// Script replays a fixed action matrix: Actions[t][proc]. Steps beyond the
// script, or processors beyond a row, idle. It is fully deterministic and
// exists for unit tests of the simulator and balancer.
type Script struct {
	Actions [][]Action
}

// Name implements Pattern.
func (s *Script) Name() string { return "script" }

// Step implements Pattern.
func (s *Script) Step(proc, t int, r *rng.RNG) Action {
	if t >= len(s.Actions) || proc >= len(s.Actions[t]) {
		return Idle
	}
	return s.Actions[t][proc]
}
