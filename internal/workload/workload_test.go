package workload

import (
	"strings"
	"testing"

	"lmbalance/internal/rng"
)

func TestActionString(t *testing.T) {
	if Idle.String() != "idle" || Generate.String() != "generate" || Consume.String() != "consume" {
		t.Fatal("Action strings wrong")
	}
	if !strings.Contains(Action(9).String(), "9") {
		t.Fatal("unknown action string should include the value")
	}
}

func TestPaperBoundsValid(t *testing.T) {
	if err := PaperBounds().Validate(); err != nil {
		t.Fatalf("paper bounds invalid: %v", err)
	}
	b := PaperBounds()
	if b.GLow != 0.1 || b.GHigh != 0.9 || b.CLow != 0.1 || b.CHigh != 0.7 ||
		b.LenLow != 150 || b.LenHigh != 400 || b.Horizon != 500 {
		t.Fatal("paper bounds do not match §7")
	}
}

func TestBoundsValidation(t *testing.T) {
	cases := []PhaseBounds{
		{GLow: -0.1, GHigh: 0.5, CLow: 0, CHigh: 0.5, LenLow: 1, LenHigh: 2, Horizon: 10},
		{GLow: 0.5, GHigh: 0.1, CLow: 0, CHigh: 0.5, LenLow: 1, LenHigh: 2, Horizon: 10},
		{GLow: 0.1, GHigh: 0.5, CLow: 0.9, CHigh: 0.5, LenLow: 1, LenHigh: 2, Horizon: 10},
		{GLow: 0.1, GHigh: 0.5, CLow: 0, CHigh: 1.5, LenLow: 1, LenHigh: 2, Horizon: 10},
		{GLow: 0.1, GHigh: 0.5, CLow: 0, CHigh: 0.5, LenLow: 5, LenHigh: 2, Horizon: 10},
		{GLow: 0.1, GHigh: 0.5, CLow: 0, CHigh: 0.5, LenLow: 0, LenHigh: 2, Horizon: 10},
		{GLow: 0.1, GHigh: 0.5, CLow: 0, CHigh: 0.5, LenLow: 1, LenHigh: 2, Horizon: 0},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestNewPhasesCoversHorizon(t *testing.T) {
	r := rng.New(1)
	p, err := NewPhases(16, PaperBounds(), r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		phases := p.phases[i]
		if len(phases) == 0 {
			t.Fatalf("proc %d has no phases", i)
		}
		// Phases must tile [0, horizon) without gaps.
		next := 0
		for _, ph := range phases {
			if ph.Start != next {
				t.Fatalf("proc %d phase starts at %d, want %d", i, ph.Start, next)
			}
			length := ph.End - ph.Start + 1
			if length < 150 || length > 400 {
				t.Fatalf("proc %d phase length %d outside [150,400]", i, length)
			}
			if ph.G < 0.1 || ph.G > 0.9 || ph.C < 0.1 || ph.C > 0.7 {
				t.Fatalf("proc %d phase probabilities out of bounds: %+v", i, ph)
			}
			next = ph.End + 1
		}
		if next < 500 {
			t.Fatalf("proc %d phases end at %d, horizon not covered", i, next)
		}
	}
}

func TestNewPhasesErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := NewPhases(0, PaperBounds(), r); err == nil {
		t.Fatal("n=0 accepted")
	}
	bad := PaperBounds()
	bad.Horizon = -1
	if _, err := NewPhases(4, bad, r); err == nil {
		t.Fatal("bad bounds accepted")
	}
}

func TestPhasesStepRates(t *testing.T) {
	// One explicit phase with G=0.6, C=0.5. Generation and consumption
	// are drawn independently (§7): P(both)=0.3, P(gen only)=0.3,
	// P(con only)=0.2, P(idle)=0.2.
	p := &Phases{name: "t", phases: [][]Phase{{{G: 0.6, C: 0.5, Start: 0, End: 999999}}}}
	r := rng.New(9)
	var gen, con, both, idle int
	const n = 200000
	for i := 0; i < n; i++ {
		switch p.Step(0, i, r) {
		case Generate:
			gen++
		case Consume:
			con++
		case GenerateAndConsume:
			both++
		default:
			idle++
		}
	}
	check := func(name string, got int, want float64) {
		rate := float64(got) / n
		if rate < want-0.01 || rate > want+0.01 {
			t.Fatalf("%s rate %.3f, want ≈%.3f", name, rate, want)
		}
	}
	check("generate-only", gen, 0.3)
	check("consume-only", con, 0.2)
	check("both", both, 0.3)
	check("idle", idle, 0.2)
}

func TestPhasesOutsideWindowIdle(t *testing.T) {
	p := &Phases{name: "t", phases: [][]Phase{{{G: 1, C: 1, Start: 10, End: 20}}}}
	r := rng.New(1)
	if a := p.Step(0, 5, r); a != Idle {
		t.Fatalf("before phase: %v", a)
	}
	if a := p.Step(0, 21, r); a != Idle {
		t.Fatalf("after phase: %v", a)
	}
	// G=1 and C=1: both events fire every in-window step.
	if a := p.Step(0, 10, r); a != GenerateAndConsume {
		t.Fatalf("inside phase with G=1,C=1: %v", a)
	}
	if a := p.Step(0, 20, r); a != GenerateAndConsume {
		t.Fatalf("inclusive end: %v", a)
	}
}

func TestOneProducer(t *testing.T) {
	var p OneProducer
	r := rng.New(1)
	for tstep := 0; tstep < 10; tstep++ {
		if p.Step(0, tstep, r) != Generate {
			t.Fatal("proc 0 must always generate")
		}
		for proc := 1; proc < 5; proc++ {
			if p.Step(proc, tstep, r) != Idle {
				t.Fatal("other procs must idle")
			}
		}
	}
	if p.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestProducerConsumer(t *testing.T) {
	p := ProducerConsumer{GenP: 0.7}
	r := rng.New(2)
	var gen, con int
	const n = 100000
	for i := 0; i < n; i++ {
		switch p.Step(0, i, r) {
		case Generate:
			gen++
		case Consume:
			con++
		default:
			t.Fatal("producer-consumer proc 0 never idles")
		}
	}
	if rate := float64(gen) / n; rate < 0.69 || rate > 0.71 {
		t.Fatalf("generate rate %.3f", rate)
	}
	if gen+con != n {
		t.Fatal("counts don't add up")
	}
	if p.Step(3, 0, r) != Idle {
		t.Fatal("other procs must idle")
	}
}

func TestUniform(t *testing.T) {
	p := Uniform{GenP: 0.3, ConP: 0.5}
	r := rng.New(3)
	var gen, con, idle int
	const n = 200000
	for i := 0; i < n; i++ {
		switch p.Step(i%8, i, r) {
		case Generate:
			gen++
		case Consume:
			con++
		default:
			idle++
		}
	}
	// P(gen)=0.3, P(con)=0.7*0.5=0.35, P(idle)=0.35
	if rate := float64(gen) / n; rate < 0.29 || rate > 0.31 {
		t.Fatalf("gen rate %.3f", rate)
	}
	if rate := float64(con) / n; rate < 0.34 || rate > 0.36 {
		t.Fatalf("con rate %.3f", rate)
	}
}

func TestBurst(t *testing.T) {
	p := Burst{BurstLen: 10, DrainLen: 5, HighG: 1, HighC: 1}
	r := rng.New(4)
	for tstep := 0; tstep < 10; tstep++ {
		if p.Step(0, tstep, r) != Generate {
			t.Fatalf("step %d should generate", tstep)
		}
	}
	for tstep := 10; tstep < 15; tstep++ {
		if p.Step(0, tstep, r) != Consume {
			t.Fatalf("step %d should consume", tstep)
		}
	}
	// Period wraps.
	if p.Step(0, 15, r) != Generate {
		t.Fatal("period should wrap")
	}
	// Degenerate period idles rather than dividing by zero.
	z := Burst{}
	if z.Step(0, 0, r) != Idle {
		t.Fatal("zero-period burst should idle")
	}
}

func TestHotspot(t *testing.T) {
	p := Hotspot{Hot: 2, GenP: 1, ConP: 0}
	r := rng.New(5)
	if p.Step(0, 0, r) != Generate || p.Step(1, 0, r) != Generate {
		t.Fatal("hot processors must generate")
	}
	if p.Step(2, 0, r) != Idle {
		t.Fatal("cold processor with ConP=0 must idle")
	}
	p2 := Hotspot{Hot: 1, GenP: 0, ConP: 1}
	if p2.Step(5, 0, r) != Consume {
		t.Fatal("cold processor with ConP=1 must consume")
	}
}

func TestScript(t *testing.T) {
	s := &Script{Actions: [][]Action{
		{Generate, Idle},
		{Consume, Generate},
	}}
	r := rng.New(1)
	if s.Step(0, 0, r) != Generate || s.Step(1, 0, r) != Idle {
		t.Fatal("step 0 wrong")
	}
	if s.Step(0, 1, r) != Consume || s.Step(1, 1, r) != Generate {
		t.Fatal("step 1 wrong")
	}
	if s.Step(0, 2, r) != Idle {
		t.Fatal("beyond script should idle")
	}
	if s.Step(7, 0, r) != Idle {
		t.Fatal("beyond row should idle")
	}
}

func TestPatternNames(t *testing.T) {
	r := rng.New(1)
	p, _ := NewPhases(2, PaperBounds(), r)
	for _, pat := range []Pattern{
		p, OneProducer{}, ProducerConsumer{GenP: 0.5},
		Uniform{}, Burst{}, Hotspot{}, &Script{},
	} {
		if pat.Name() == "" {
			t.Fatalf("%T has empty name", pat)
		}
	}
}
