package theory

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFIXIsFixedPointOfG(t *testing.T) {
	for _, tc := range []struct {
		n, delta int
		f        float64
	}{
		{8, 1, 1.1}, {64, 1, 1.1}, {64, 4, 1.8}, {1024, 2, 1.2}, {16, 4, 3.0},
	} {
		fix := FIX(tc.n, tc.delta, tc.f)
		got := G(tc.n, tc.delta, tc.f, fix)
		if math.Abs(got-fix) > 1e-9*fix {
			t.Fatalf("n=%d δ=%d f=%v: G(FIX)=%v != FIX=%v", tc.n, tc.delta, tc.f, got, fix)
		}
	}
}

// TestLemma2 verifies G(k) >= k ⟺ k <= FIX (and the strict versions), the
// paper's Lemma 2, on random parameters.
func TestLemma2(t *testing.T) {
	prop := func(nRaw, dRaw, fRaw, kRaw uint8) bool {
		n := 3 + int(nRaw)%60
		delta := 1 + int(dRaw)%4
		f := 1.01 + float64(fRaw)/255.0*(float64(delta)+0.9-1.01)
		if f >= float64(delta)+1 {
			return true // outside the theorem's precondition
		}
		k := 0.1 + float64(kRaw)/255.0*3.0
		fix := FIX(n, delta, f)
		g := G(n, delta, f, k)
		switch {
		case math.Abs(k-fix) < 1e-9:
			return math.Abs(g-k) < 1e-6
		case k < fix:
			return g > k
		default:
			return g < k
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem1Convergence: G^t(1) is increasing, bounded by FIX, and
// converges to FIX.
func TestTheorem1Convergence(t *testing.T) {
	n, delta, f := 64, 1, 1.1
	fix := FIX(n, delta, f)
	traj := IterateG(n, delta, f, 2000)
	prev := 1.0
	for i, v := range traj {
		if v < prev-1e-12 {
			t.Fatalf("G^t(1) not monotone at %d: %v < %v", i+1, v, prev)
		}
		if v > fix+1e-9 {
			t.Fatalf("G^t(1) = %v exceeds FIX = %v at %d", v, fix, i+1)
		}
		prev = v
	}
	if math.Abs(traj[len(traj)-1]-fix) > 1e-6 {
		t.Fatalf("G^t(1) did not converge: %v vs FIX %v", traj[len(traj)-1], fix)
	}
}

// TestTheorem2: FIX(n,δ,f) <= δ/(δ+1−f) for all n, and approaches it as
// n → ∞.
func TestTheorem2(t *testing.T) {
	delta, f := 2, 1.5
	limit := FixLimit(delta, f)
	prev := 0.0
	for _, n := range []int{4, 8, 16, 64, 256, 1024, 1 << 14, 1 << 18} {
		fix := FIX(n, delta, f)
		if fix > limit+1e-9 {
			t.Fatalf("FIX(%d) = %v exceeds limit %v", n, fix, limit)
		}
		if fix < prev-1e-9 {
			t.Fatalf("FIX not increasing in n at %d", n)
		}
		prev = fix
	}
	if math.Abs(FIX(1<<18, delta, f)-limit) > 1e-3 {
		t.Fatalf("FIX(2^18) = %v far from limit %v", FIX(1<<18, delta, f), limit)
	}
}

func TestFixLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FixLimit(1, 2.0) did not panic")
		}
	}()
	FixLimit(1, 2.0)
}

// TestLemma3COperator: C^t(1) decreases toward FIX(n,δ,1/f) >= δ/(δ+1−1/f).
func TestLemma3COperator(t *testing.T) {
	n, delta, f := 64, 1, 1.1
	fixDec := FIX(n, delta, 1/f)
	lower := float64(delta) / (float64(delta) + 1 - 1/f)
	if fixDec < lower-1e-9 {
		t.Fatalf("FIX(n,δ,1/f) = %v below δ/(δ+1−1/f) = %v", fixDec, lower)
	}
	traj := IterateC(n, delta, f, 2000)
	prev := 1.0
	for i, v := range traj {
		if v > prev+1e-12 {
			t.Fatalf("C^t(1) not decreasing at %d", i+1)
		}
		if v < fixDec-1e-9 {
			t.Fatalf("C^t(1) = %v fell below FIX(1/f) = %v at %d", v, fixDec, i+1)
		}
		prev = v
	}
	if math.Abs(traj[len(traj)-1]-fixDec) > 1e-6 {
		t.Fatalf("C^t(1) did not converge to FIX(1/f)")
	}
}

// TestTheorem3Sandwich: for any t, FIX(n,δ,1/f) <= ratio <= FIX(n,δ,f)
// when iterating either operator from a balanced start.
func TestTheorem3Sandwich(t *testing.T) {
	n, delta, f := 32, 2, 1.4
	lo, hi := FIX(n, delta, 1/f), FIX(n, delta, f)
	for _, v := range IterateG(n, delta, f, 300) {
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("G trajectory left [%v,%v]: %v", lo, hi, v)
		}
	}
	for _, v := range IterateC(n, delta, f, 300) {
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("C trajectory left [%v,%v]: %v", lo, hi, v)
		}
	}
}

func TestTheorem4Bound(t *testing.T) {
	// f², δ=1, f=1.1: 1.21 · 1/(2−1.1) = 1.3444…
	got := Theorem4Bound(1, 1.1)
	want := 1.1 * 1.1 / 0.9
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Theorem4Bound = %v, want %v", got, want)
	}
}

func TestDecreaseConstants(t *testing.T) {
	n, delta, f := 64, 1, 1.1
	u, d := decreaseU(n, delta, f), decreaseD(n, delta, f)
	if u <= 0 || d <= 0 || u >= 1 || d >= 1 {
		t.Fatalf("U=%v D=%v outside (0,1)", u, d)
	}
	// U uses the smaller steady-state ratio FIX(1/f) < FIX(f), so U > D:
	// the lower bound contracts slower.
	if u <= d {
		t.Fatalf("expected U > D, got U=%v D=%v", u, d)
	}
}

func TestDecreaseBoundsSandwichSimulation(t *testing.T) {
	n, delta, f := 64, 1, 1.1
	x, c := 1000, 500
	lower := Lemma5Lower(n, delta, f, x, c)
	upper, ok := Lemma5Upper(n, delta, f, x, c)
	mean, std := DecreaseProcess(n, delta, f, float64(x), float64(c), 200, 99)
	t.Logf("lower=%d upper=%d(ok=%v) improved=%d sim=%.2f±%.2f",
		lower, upper, ok, Lemma6Upper(n, delta, f, x, c, 100000), mean, std)
	if lower < 0 {
		t.Fatal("negative lower bound")
	}
	if ok && upper < lower {
		t.Fatalf("upper %d < lower %d", upper, lower)
	}
	// The simulated iteration count must respect the bounds with slack for
	// Monte Carlo noise and the expected-value approximation.
	if float64(lower) > mean*1.5+3 {
		t.Fatalf("simulation %.1f clearly below lower bound %d", mean, lower)
	}
	if ok && mean > float64(upper)*1.5+3 {
		t.Fatalf("simulation %.1f clearly above upper bound %d", mean, upper)
	}
}

func TestLemma6NotWorseThanLemma5(t *testing.T) {
	n, delta, f := 64, 1, 1.2
	x, c := 500, 300
	u5, ok := Lemma5Upper(n, delta, f, x, c)
	u6 := Lemma6Upper(n, delta, f, x, c, 100000)
	t.Logf("Lemma5 upper=%d (ok=%v), Lemma6 improved=%d", u5, ok, u6)
	if u6 < 0 {
		t.Fatal("Lemma 6 target unreachable")
	}
	if ok && u6 > u5+1 {
		t.Fatalf("improved bound %d worse than Lemma 5 bound %d", u6, u5)
	}
}

func TestLemma5Degenerate(t *testing.T) {
	if Lemma5Lower(64, 1, 1.0, 100, 50) != 0 {
		t.Fatal("f=1 lower bound should degenerate to 0")
	}
	if _, ok := Lemma5Upper(64, 1, 1.0, 100, 50); ok {
		t.Fatal("f=1 upper bound should be unavailable")
	}
	if _, ok := Lemma5Upper(64, 1, 1.1, 1, 1); ok {
		t.Fatal("x=1 upper bound should be unavailable")
	}
	if Lemma6Upper(64, 1, 1.0, 100, 50, 100) != 0 {
		t.Fatal("f=1 improved bound should degenerate to 0")
	}
}

// TestDecreaseSensitivity reproduces the paper's §6 observation: the
// number of iterations is very sensitive to f but nearly independent of δ
// and n, and depends on c/x rather than on x.
func TestDecreaseSensitivity(t *testing.T) {
	base, _ := DecreaseProcess(64, 1, 1.1, 1000, 500, 300, 1)
	fast, _ := DecreaseProcess(64, 1, 1.5, 1000, 500, 300, 2)
	if fast >= base {
		t.Fatalf("larger f should need fewer iterations: f=1.1→%.1f, f=1.5→%.1f", base, fast)
	}
	// Nearly independent of n.
	n16, _ := DecreaseProcess(16, 1, 1.1, 1000, 500, 300, 3)
	if math.Abs(n16-base)/base > 0.35 {
		t.Fatalf("iteration count strongly n-dependent: n=16→%.1f n=64→%.1f", n16, base)
	}
	// Same c/x ⇒ same iterations (scale invariance).
	scaled, _ := DecreaseProcess(64, 1, 1.1, 2000, 1000, 300, 4)
	if math.Abs(scaled-base)/base > 0.25 {
		t.Fatalf("c/x invariance violated: %.1f vs %.1f", scaled, base)
	}
}

func TestABasicValues(t *testing.T) {
	// f=1: A = (1 − n + δ(n−2) + n − 1)/(2δ) = (δ(n−2))/(2δ) = (n−2)/2.
	if got, want := A(10, 3, 1.0), 4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("A(10,3,1) = %v, want %v", got, want)
	}
}

func TestFixAtFEquals1(t *testing.T) {
	// f=1 means balance after every packet: the ratio must be 1 in the
	// n→∞ limit (δ/(δ+1−1) = δ/δ).
	if got := FixLimit(3, 1.0); got != 1 {
		t.Fatalf("FixLimit(δ,1) = %v, want 1", got)
	}
	// Finite n: FIX < 1 slightly? It must be close to 1 for large n.
	if got := FIX(1<<16, 2, 1.0); math.Abs(got-1) > 1e-3 {
		t.Fatalf("FIX(large n, f=1) = %v, want ≈1", got)
	}
}
