package experiments

import (
	"strings"
	"testing"

	"lmbalance/internal/obs"
	"lmbalance/internal/serve"
)

func TestSojournAnatomyQuick(t *testing.T) {
	res, err := SojournAnatomy(ScaleQuick, 1993)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("expected 2 arms, got %d", len(res.Arms))
	}
	steady, spike := res.armFor("steady"), res.armFor("spike")
	if steady == nil || spike == nil {
		t.Fatal("missing arms")
	}
	for _, a := range res.Arms {
		if a.Completed != a.Submitted {
			t.Errorf("%s: completed %d of %d", a.Mode, a.Completed, a.Submitted)
		}
		if len(a.Components) != len(anatomyComponents) {
			t.Fatalf("%s: %d components", a.Mode, len(a.Components))
		}
		// The decomposition must account for the unit sojourn: the
		// journey components sum to it up to stamp-clamping slack.
		if a.ComponentVsUnitErr > 0.05 {
			t.Errorf("%s: decomposition off by %.2f%%", a.Mode, a.ComponentVsUnitErr*100)
		}
		// Service time is a physical floor — every completed unit was
		// served, so the service component must dominate zero.
		if svc := a.Components[3]; svc.Name != "service" || svc.MeanMS <= 0 {
			t.Errorf("%s: service component %+v", a.Mode, svc)
		}
		if a.UnitMeanMS <= 0 || a.UnitP99MS < a.UnitMeanMS {
			t.Errorf("%s: unit sojourn mean %.3fms p99 %.3fms", a.Mode, a.UnitMeanMS, a.UnitP99MS)
		}
		if len(a.Polls) < 3 {
			t.Errorf("%s: only %d monitor polls", a.Mode, len(a.Polls))
		}
	}
	// The experiment's whole point, already gated inside SojournAnatomy
	// but asserted here for the record: the injected spike trips the
	// burn-rate alert, the steady control does not.
	if spike.Alerts == 0 || spike.FirstAlertMS < 0 {
		t.Errorf("spike arm never alerted: %+v", spike)
	}
	if steady.Alerts != 0 {
		t.Errorf("steady arm alerted %d times", steady.Alerts)
	}
	// Early warning: the alert lands before the run's whole error
	// budget is spent.
	if spike.BudgetAtAlert >= 1 {
		t.Errorf("spike alert only fired after budget exhaustion (%.0f%% spent)",
			spike.BudgetAtAlert*100)
	}
	// The spike's pain is queueing delay: its queue component share must
	// exceed the steady arm's. (Hot vs cold p99 is NOT gated — with
	// balancing on, the overload spreads and the tails equalize, which
	// is the protocol working, not a test failure.)
	if spike.Components[1].Share <= steady.Components[1].Share {
		t.Errorf("spike queue share %.1f%% not above steady %.1f%%",
			spike.Components[1].Share*100, steady.Components[1].Share*100)
	}

	// The fixed threshold is no looser than the rule it replaced: at most
	// 8× the p95 the steady arm has reached when its warmup ends.
	if limit := 8 * steady.WarmP95MS / 1e3; res.SLO.Threshold > limit {
		t.Errorf("SLO threshold %.2fms above 8× the steady warmed-up p95 (%.2fms)",
			res.SLO.Threshold*1e3, limit*1e3)
	}
	out := checkRender(t, res, "d4e3ae54ad1fd6ec")
	for _, want := range []string{"ingest_wait", "burn-rate alert", "stayed healthy"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMergedQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	name := func(node int) string { return serve.UnitSojournMetric(node) }
	// Node 0 holds fast observations, node 1 slow ones; the merged p99
	// must land in the slow mass, and a single-node merge must agree
	// with the histogram's own quantile up to bucket resolution.
	h0 := reg.Histogram(name(0), obs.SojournBuckets)
	h1 := reg.Histogram(name(1), obs.SojournBuckets)
	for i := 0; i < 95; i++ {
		h0.Observe(0.002)
	}
	for i := 0; i < 5; i++ {
		h1.Observe(0.5)
	}

	solo := mergedQuantile(reg, []int{0}, name, 0.5)
	if own := h0.Quantile(0.5); solo <= 0 || solo > own*4 || own > solo*4 {
		t.Errorf("single-node merge p50 %.4fs vs own %.4fs", solo, own)
	}
	merged := mergedQuantile(reg, []int{0, 1}, name, 0.99)
	if merged < 0.1 || merged > 1.0 {
		t.Errorf("merged p99 %.4fs, want the slow observation's bucket", merged)
	}
	if p50 := mergedQuantile(reg, []int{0, 1}, name, 0.5); p50 > 0.01 {
		t.Errorf("merged p50 %.4fs, want the fast mass", p50)
	}
}
