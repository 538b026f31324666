package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"lmbalance/internal/baseline"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/topology"
	"lmbalance/internal/workload"
)

// The experiment harnesses are integration tests of the whole stack; they
// run at ScaleQuick here and assert the paper's qualitative claims.

// checkRender renders r and returns the text, failing the test unless the
// first 8 bytes of its sha256 are want (hex). The constants pin every
// deterministic artifact at its test's seed, so a change that moves a
// number changes a constant on purpose, in one place.
func checkRender(t *testing.T, r Renderer, want string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:8]); got != want {
		t.Errorf("render digest %s, want %s", got, want)
	}
	return buf.String()
}

func TestFig6QuickShape(t *testing.T) {
	res, err := Fig6(ScaleQuick, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Locate combo indices.
	idx := func(delta int, f float64) int {
		for i, c := range res.Combos {
			if c.Delta == delta && c.F == f {
				return i
			}
		}
		t.Fatalf("combo δ=%d f=%g missing", delta, f)
		return -1
	}
	lastN := len(res.Ns) - 1
	// Paper claims: VD small in general; larger δ → lower VD; larger f →
	// higher VD.
	d1f11 := res.Final(idx(1, 1.1), lastN)
	d4f11 := res.Final(idx(4, 1.1), lastN)
	d1f12 := res.Final(idx(1, 1.2), lastN)
	if d1f11 <= 0 || d1f11 > 1 {
		t.Fatalf("VD(δ=1,f=1.1) = %v not small-positive", d1f11)
	}
	if d4f11 >= d1f11 {
		t.Fatalf("δ=4 VD %v not below δ=1 VD %v", d4f11, d1f11)
	}
	if d1f12 <= d1f11 {
		t.Fatalf("f=1.2 VD %v not above f=1.1 VD %v", d1f12, d1f11)
	}
	// Infeasible cells (δ > n−1) are nil: δ=2 needs n≥3, δ=4 needs n≥5.
	if res.VD[idx(2, 1.1)][0] != nil {
		t.Fatal("δ=2, n=2 should be infeasible")
	}
	if res.VD[idx(4, 1.1)][2] != nil {
		t.Fatal("δ=4, n=4 should be infeasible")
	}
	if !strings.Contains(checkRender(t, res, "3d3c760dbcab5c35"), "Figure 6") {
		t.Fatal("render missing title")
	}
}

// figurePanels runs the δ=1 (Figures 7 and 9) and δ=4 (Figures 8 and 10)
// panel sets once, at one seed; the four figure tests assert their claims
// on these runs.
var figurePanels = sync.OnceValues(func() ([2]*PanelsResult, error) {
	d1, err := Panels(Fig7Panels, ScaleQuick, 3)
	if err != nil {
		return [2]*PanelsResult{}, err
	}
	d4, err := Panels(Fig8Panels, ScaleQuick, 3)
	return [2]*PanelsResult{d1, d4}, err
})

func panelSets(t *testing.T) (d1, d4 *PanelsResult) {
	t.Helper()
	sets, err := figurePanels()
	if err != nil {
		t.Fatal(err)
	}
	return sets[0], sets[1]
}

func TestFig7QuickShape(t *testing.T) {
	d1, d4 := panelSets(t)
	for _, set := range []*PanelsResult{d1, d4} {
		if len(set.Results) != 2 {
			t.Fatal("expected 2 panels")
		}
		// Load accumulates: the average at the end must exceed the start.
		for i, p := range set.Panels {
			if avg := set.Results[i].Avg; avg.At(PaperSteps-1).Mean() <= avg.At(10).Mean() {
				t.Fatalf("δ=%d f=%g: load did not accumulate", p.Delta, p.F)
			}
		}
	}
	// f=1.1 balances at least as well as f=1.8 (δ=1): smaller tail spread.
	if s11, s18 := TailSpread(d1.Results[0]), TailSpread(d1.Results[1]); s11 > s18 {
		t.Fatalf("f=1.1 spread %v worse than f=1.8 spread %v", s11, s18)
	}
	if out := checkRender(t, Quality{d1, "7"}, "bb495cd7bdbf3801"); !strings.Contains(out, "Figure 7") {
		t.Fatal("render missing title")
	}
	checkRender(t, Quality{d4, "8"}, "7a2fafd1967a6300")
}

func TestFig8BetterThanFig7(t *testing.T) {
	d1, d4 := panelSets(t)
	// The paper's headline observation: δ=4 balances much better than
	// δ=1 at the same f.
	if s4, s1 := TailSpread(d4.Results[0]), TailSpread(d1.Results[0]); s4 >= s1 {
		t.Fatalf("δ=4 spread %v not below δ=1 spread %v", s4, s1)
	}
}

func TestFig910Quick(t *testing.T) {
	d1, d4 := panelSets(t)
	for _, set := range []*PanelsResult{d1, d4} {
		for i := range set.Panels {
			for _, s := range SnapshotSteps {
				if set.EnvelopeWidth(i, s) < 0 {
					t.Fatal("negative envelope")
				}
				if accs := set.Results[i].Snapshots[s-1]; len(accs) != PaperN {
					t.Fatalf("snapshot at %d has %d processors", s, len(accs))
				}
			}
		}
	}
	checkRender(t, Distribution{d1, "9"}, "5fbc3ca482475fbf")
	if out := checkRender(t, Distribution{d4, "10"}, "5f58cc3d2adfb7fe"); !strings.Contains(out, "Figure 10") {
		t.Fatal("render missing title")
	}
}

func TestFig910DeltaImpact(t *testing.T) {
	// Fig. 9 vs Fig. 10: "the large impact of parameter δ on the balancing
	// quality": envelopes shrink dramatically from δ=1 to δ=4 at f=1.1.
	d1, d4 := panelSets(t)
	if w4, w1 := d4.EnvelopeWidth(0, 400), d1.EnvelopeWidth(0, 400); w4 >= w1 {
		t.Fatalf("δ=4 envelope %v not below δ=1 envelope %v", w4, w1)
	}
}

func TestTable1Quick(t *testing.T) {
	res, err := Table1(ScaleQuick, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(Table1Cs) {
		t.Fatal("missing columns")
	}
	// Paper Table 1 shape: total borrow roughly constant in C; remote
	// borrow falls steeply with C.
	first, last := res.Metrics[0], res.Metrics[len(res.Metrics)-1]
	if first.TotalBorrow <= 0 {
		t.Fatal("no borrowing recorded")
	}
	if last.RemoteBorrow > first.RemoteBorrow {
		t.Fatalf("remote borrow did not fall with C: C=4→%v C=32→%v",
			first.RemoteBorrow, last.RemoteBorrow)
	}
	ratio := last.TotalBorrow / first.TotalBorrow
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("total borrow should be roughly C-independent, got ratio %v", ratio)
	}
	if !strings.Contains(checkRender(t, res, "4733b4dcc9bfc7c3"), "Table 1") {
		t.Fatal("render missing title")
	}
}

func TestTheoremCheckQuick(t *testing.T) {
	res, err := TheoremCheck(ScaleQuick, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(TheoremCases) {
		t.Fatal("missing rows")
	}
	for _, row := range res.Rows {
		// Measured ratio must respect the sampled bound f·FIX with Monte
		// Carlo slack, and must exceed ~1 (the generator is never below
		// average).
		if row.MeasuredRatio > row.SampledBound*1.25 {
			t.Fatalf("n=%d δ=%d f=%g: measured %v above bound %v",
				row.Case.N, row.Case.Delta, row.Case.F, row.MeasuredRatio, row.SampledBound)
		}
		if row.MeasuredRatio < 0.8 {
			t.Fatalf("generator ratio %v implausibly low", row.MeasuredRatio)
		}
		if row.Fix > row.Limit+1e-9 {
			t.Fatalf("FIX %v exceeds n→∞ limit %v", row.Fix, row.Limit)
		}
	}
	checkRender(t, res, "fb31377aa456201d")
}

func TestDecreaseCostQuick(t *testing.T) {
	res := DecreaseCost(ScaleQuick, 8)
	if len(res.Rows) != len(DecreaseCases) {
		t.Fatal("missing rows")
	}
	for _, row := range res.Rows {
		if float64(row.Lower) > row.SimMean*1.5+3 {
			t.Fatalf("%+v: sim %v below lower bound %d", row.Case, row.SimMean, row.Lower)
		}
		if row.UpperOK && row.SimMean > float64(row.Upper)*1.5+3 {
			t.Fatalf("%+v: sim %v above upper bound %d", row.Case, row.SimMean, row.Upper)
		}
	}
	// f-sensitivity: iterations fall as f grows (rows 0..3 share x,c).
	if !(res.Rows[3].SimMean < res.Rows[0].SimMean) {
		t.Fatalf("f=1.8 (%v) not cheaper than f=1.1 (%v)",
			res.Rows[3].SimMean, res.Rows[0].SimMean)
	}
	// c/x invariance: rows 0 and 8.
	a, b := res.Rows[0].SimMean, res.Rows[8].SimMean
	if a > 0 && (b < a*0.7 || b > a*1.3) {
		t.Fatalf("c/x invariance violated: %v vs %v", a, b)
	}
	checkRender(t, res, "3464a71cacf08609")
}

func TestBaselineComparisonQuick(t *testing.T) {
	res, err := BaselineComparison(ScaleQuick, 9)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BaselineRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	lm := byName["LM(f=1.1,δ=1)"]
	nob := byName["nobalance"]
	scat := byName["randomscatter"]
	if lm.MeanSpreadTail >= nob.MeanSpreadTail {
		t.Fatalf("LM spread %v not below no-balance %v", lm.MeanSpreadTail, nob.MeanSpreadTail)
	}
	// §5's point: the scatter strawman has very high variation-like
	// spread despite equal expected loads.
	if scat.MeanSpreadTail <= lm.MeanSpreadTail*2 {
		t.Fatalf("scatter spread %v suspiciously close to LM %v", scat.MeanSpreadTail, lm.MeanSpreadTail)
	}
	// The cost columns are per-run means over the very runs behind the
	// spread: replay each baseline row in an independent sim.Run at its
	// seed, keep every run's balancer and read its counters afterwards.
	torus := topology.Torus2D(8, 8)
	for _, c := range []struct {
		row  int
		name string
		mk   func(r *rng.RNG) (baseline.Algorithm, error)
	}{
		{3, "randomscatter", func(r *rng.RNG) (baseline.Algorithm, error) { return baseline.NewRandomScatter(PaperN, r), nil }},
		{4, "rsu", func(r *rng.RNG) (baseline.Algorithm, error) { return baseline.NewRSU(PaperN, 1, r), nil }},
		{5, "diffusion(torus)", func(r *rng.RNG) (baseline.Algorithm, error) { return baseline.NewDiffusion(torus, 1, 0) }},
		{6, "gradient(torus)", func(r *rng.RNG) (baseline.Algorithm, error) { return baseline.NewGradient(torus, 2, 8, 1) }},
	} {
		bals := make([]baseline.Algorithm, res.Runs)
		_, err := sim.Run(sim.Config{
			N: PaperN, Steps: PaperSteps, Runs: res.Runs, Seed: 9 + uint64(c.row),
			NewBalancer: func(run int, r *rng.RNG) (sim.Balancer, error) {
				b, err := c.mk(r)
				bals[run] = b
				return b, err
			},
			NewPattern: func(_ int, r *rng.RNG) (workload.Pattern, error) {
				return workload.NewPhases(PaperN, workload.PaperBounds(), r)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var ops, mig int64
		for _, b := range bals {
			ops, mig = ops+b.BalanceOps(), mig+b.Migrations()
		}
		row := res.Rows[c.row]
		wantOps, wantMig := float64(ops)/float64(res.Runs), float64(mig)/float64(res.Runs)
		if row.Name != c.name || row.BalanceOps != wantOps || row.Migrations != wantMig {
			t.Errorf("%s: %v ops/run, %v migrations/run; its runs average %v and %v",
				row.Name, row.BalanceOps, row.Migrations, wantOps, wantMig)
		}
	}
	checkRender(t, res, "df16e53bba5daaee")
}

func TestAblationsQuick(t *testing.T) {
	res, err := Ablations(ScaleQuick, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ParamSweep) == 0 || len(res.Topology) != 5 || len(res.Reset) != 2 || len(res.CSweep) != 7 {
		t.Fatalf("missing rows: %d/%d/%d/%d", len(res.ParamSweep), len(res.Topology), len(res.Reset), len(res.CSweep))
	}
	// The §7 C claim: settlement communication falls steeply with C.
	if res.CSweep[0].RemoteBorrow <= res.CSweep[len(res.CSweep)-1].RemoteBorrow {
		t.Fatalf("remote borrow did not fall with C: C=1→%v C=64→%v",
			res.CSweep[0].RemoteBorrow, res.CSweep[len(res.CSweep)-1].RemoteBorrow)
	}
	// Within the sweep: for fixed f=1.1, spread shrinks with δ.
	spread := map[string]float64{}
	for _, row := range res.ParamSweep {
		spread[row.Name] = row.MeanSpreadTail
	}
	if spread["δ=8 f=1.1"] >= spread["δ=1 f=1.1"] {
		t.Fatalf("δ=8 spread %v not below δ=1 spread %v", spread["δ=8 f=1.1"], spread["δ=1 f=1.1"])
	}
	if !strings.Contains(checkRender(t, res, "8b9c3186b3ab8361"), "Ablations") {
		t.Fatal("render missing title")
	}
}
