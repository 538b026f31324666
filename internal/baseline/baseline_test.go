package baseline

import (
	"testing"

	"lmbalance/internal/rng"
	"lmbalance/internal/stats"
	"lmbalance/internal/topology"
)

func totalOf(a Algorithm) int { return a.TotalLoad() }

// spreadOf returns the largest minus the smallest processor load.
func spreadOf(a Algorithm) int {
	var p stats.LoadPartial
	for _, v := range a.Loads(nil) {
		p.Observe(v)
	}
	return p.Max - p.Min
}

func TestNoBalance(t *testing.T) {
	a := NewNoBalance(4)
	if a.Name() == "" || a.N() != 4 {
		t.Fatal("metadata wrong")
	}
	a.Generate(2)
	a.Generate(2)
	a.Tick(0)
	if a.Load(2) != 2 || a.TotalLoad() != 2 {
		t.Fatal("load not retained locally")
	}
	if !a.Consume(2) || a.Load(2) != 1 {
		t.Fatal("consume failed")
	}
	if a.Consume(0) {
		t.Fatal("consume on empty processor succeeded")
	}
	if a.BalanceOps() != 0 || a.Migrations() != 0 {
		t.Fatal("no-op balancer reported activity")
	}
	loads := a.Loads(nil)
	if len(loads) != 4 || loads[2] != 1 {
		t.Fatalf("snapshot wrong: %v", loads)
	}
}

func TestRandomScatterConservation(t *testing.T) {
	r := rng.New(1)
	a := NewRandomScatter(8, r)
	for i := 0; i < 8; i++ {
		for k := 0; k <= i; k++ {
			a.Generate(i)
		}
	}
	before := totalOf(a)
	for t := 0; t < 100; t++ {
		a.Tick(t)
	}
	if totalOf(a) != before {
		t.Fatalf("scatter lost packets: %d -> %d", before, totalOf(a))
	}
}

func TestRandomScatterHighVariation(t *testing.T) {
	// The §5 strawman: expected loads equal but per-step variation huge —
	// most processors are empty, one holds a pile. Check that after a
	// scatter step the load is much more concentrated than balanced.
	r := rng.New(2)
	a := NewRandomScatter(16, r)
	for i := 0; i < 160; i++ {
		a.Generate(i % 16)
	}
	var spread stats.Accumulator
	for t := 0; t < 200; t++ {
		a.Tick(t)
		spread.Add(float64(spreadOf(a)))
	}
	// A balanced system of 160 packets on 16 procs would have spread ≈ 0-1.
	if spread.Mean() < 20 {
		t.Fatalf("scatter spread suspiciously low: %v", spread.Mean())
	}
}

func TestRSUBalances(t *testing.T) {
	r := rng.New(3)
	a := NewRSU(8, 1, r)
	for i := 0; i < 400; i++ {
		a.Generate(0) // hotspot generation
	}
	before := totalOf(a)
	for t := 0; t < 2000; t++ {
		a.Tick(t)
	}
	if totalOf(a) != before {
		t.Fatal("RSU lost packets")
	}
	if got := spreadOf(a); got > 100 {
		t.Fatalf("RSU failed to spread hotspot load: spread %d", got)
	}
	if a.BalanceOps() == 0 || a.Migrations() == 0 {
		t.Fatal("RSU reported no activity")
	}
}

func TestRSUThresholdSuppresses(t *testing.T) {
	r := rng.New(4)
	a := NewRSU(4, 1000, r)
	for i := 0; i < 50; i++ {
		a.Generate(0)
	}
	for t := 0; t < 200; t++ {
		a.Tick(t)
	}
	if a.BalanceOps() != 0 {
		t.Fatal("huge threshold should suppress all balancing")
	}
}

func TestDiffusionValidation(t *testing.T) {
	g := topology.Ring(8)
	if _, err := NewDiffusion(g, 0, 0.3); err == nil {
		t.Fatal("period 0 accepted")
	}
	if _, err := NewDiffusion(g, 1, 0); err != nil {
		t.Fatalf("alpha<=0 should select the stable default, got error: %v", err)
	}
	// Ring has max degree 2 → stability limit 1/3.
	if _, err := NewDiffusion(g, 1, 0.34); err == nil {
		t.Fatal("alpha beyond the stability limit accepted")
	}
	if a, err := NewDiffusion(g, 1, 0.3); err != nil || a == nil {
		t.Fatalf("stable alpha rejected: %v", err)
	}
}

func TestDiffusionConvergesOnRing(t *testing.T) {
	g := topology.Ring(8)
	a, err := NewDiffusion(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		a.Generate(0)
	}
	before := totalOf(a)
	for t := 0; t < 500; t++ {
		a.Tick(t)
	}
	if totalOf(a) != before {
		t.Fatal("diffusion lost packets")
	}
	if got := spreadOf(a); got > 12 {
		t.Fatalf("diffusion on ring left spread %d", got)
	}
}

func TestDiffusionPeriod(t *testing.T) {
	g := topology.Ring(4)
	a, err := NewDiffusion(g, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a.Generate(0)
	}
	// Ticks 0..8 must not balance (fires at (t+1)%10==0, i.e. t=9).
	for t := 0; t < 9; t++ {
		a.Tick(t)
	}
	if a.BalanceOps() != 0 {
		t.Fatal("diffusion fired before its period")
	}
	a.Tick(9)
	if a.BalanceOps() != 1 {
		t.Fatal("diffusion did not fire at its period")
	}
}

func TestGradientValidation(t *testing.T) {
	g := topology.Ring(8)
	if _, err := NewGradient(g, 5, 5, 1); err == nil {
		t.Fatal("high == low accepted")
	}
	if _, err := NewGradient(g, -1, 5, 1); err == nil {
		t.Fatal("negative low accepted")
	}
	if _, err := NewGradient(g, 1, 5, 0); err == nil {
		t.Fatal("period 0 accepted")
	}
}

func TestGradientFlowsDownhill(t *testing.T) {
	g := topology.Ring(16)
	a, err := NewGradient(g, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a.Generate(0)
	}
	before := totalOf(a)
	for t := 0; t < 3000; t++ {
		a.Tick(t)
	}
	if totalOf(a) != before {
		t.Fatal("gradient lost packets")
	}
	if a.Migrations() == 0 {
		t.Fatal("gradient never moved a packet")
	}
	// Load must have flowed away from the hotspot.
	if a.Load(0) == 200 {
		t.Fatal("hotspot load never decreased")
	}
	// Neighbors of the hotspot should have received something over time.
	if a.Load(1)+a.Load(15) == 0 {
		t.Fatal("hotspot neighbors never received load")
	}
}

func TestAllNamesNonEmpty(t *testing.T) {
	r := rng.New(9)
	g := topology.Ring(4)
	diff, _ := NewDiffusion(g, 1, 0)
	grad, _ := NewGradient(g, 1, 3, 1)
	for _, a := range []Algorithm{
		NewNoBalance(4), NewRandomScatter(4, r), NewRSU(4, 1, r), diff, grad,
	} {
		if a.Name() == "" {
			t.Fatalf("%T has empty name", a)
		}
		if a.N() != 4 {
			t.Fatalf("%T reports N=%d", a, a.N())
		}
	}
}

func BenchmarkRSUTick(b *testing.B) {
	r := rng.New(1)
	a := NewRSU(64, 1, r)
	for i := 0; i < 64*10; i++ {
		a.Generate(i % 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Tick(i)
	}
}

func BenchmarkDiffusionTick(b *testing.B) {
	g := topology.Torus2D(8, 8)
	a, err := NewDiffusion(g, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64*10; i++ {
		a.Generate(i % 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Tick(i)
	}
}
