package experiments

import "testing"

func TestVDTrajectoryQuickShape(t *testing.T) {
	res, err := VDTrajectory(ScaleQuick, 1993)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(vdTrajSettings) {
		t.Fatalf("expected %d runs, got %d", len(vdTrajSettings), len(res.Runs))
	}
	for _, run := range res.Runs {
		if len(run.Points) < 8 {
			t.Fatalf("f=%g δ=%d: only %d trajectory samples", run.F, run.Delta, len(run.Points))
		}
		if run.PeakVD <= 0 {
			t.Fatalf("f=%g δ=%d: flat trajectory (peak %v): the hot quarter never imbalanced the cluster",
				run.F, run.Delta, run.PeakVD)
		}
		if run.LateVD < 0 || run.EarlyVD < 0 {
			t.Fatalf("f=%g δ=%d: negative VD", run.F, run.Delta)
		}
	}
	// The §5 claim: at least 3 of the settings must show the convergent
	// early-high/late-low shape.
	if c := res.ConvergedCount(); c < 3 {
		t.Fatalf("only %d/%d settings converged: %+v", c, len(res.Runs), res.Runs)
	}
	checkRender(t, res, "b392028a071b9e15")
}
