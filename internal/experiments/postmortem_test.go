package experiments

import (
	"strings"
	"testing"
)

// TestPostMortemQuick runs the whole post-mortem pipeline at quick
// scale: record→replay fidelity, snapshot-on-alert incident capture
// with an offline degraded-transition verdict, and the tamper check.
// Every claim is asserted inside PostMortem itself; the test checks the
// run succeeds, the rendered artifact carries the verdicts, and — the
// run being on netsim's virtual clock — pins the render.
func TestPostMortemQuick(t *testing.T) {
	res, err := PostMortem(ScaleQuick, 1993)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Baseline.Identical {
		t.Fatal("baseline replay not bit-identical")
	}
	if res.Baseline.Events == 0 || res.Baseline.Timelines == 0 || res.Baseline.VDPoints == 0 {
		t.Fatalf("baseline under-populated: %+v", res.Baseline)
	}
	inc := &res.Incident
	if inc.Snapshots != inc.N {
		t.Fatalf("sealed %d snapshots for %d nodes", inc.Snapshots, inc.N)
	}
	if inc.AlertAtMS < 0 || inc.Violations != 0 || inc.OverSLO == 0 {
		t.Fatalf("incident verdict malformed: %+v", inc)
	}
	if inc.DegradedSojournMS*1e6 <= inc.SLO.Threshold*1e9 {
		t.Fatalf("degraded transition %.1fms does not exceed the %.0fms SLO",
			inc.DegradedSojournMS, inc.SLO.Threshold*1e3)
	}
	if res.Tamper.Rule != "imbalance_violation" {
		t.Fatalf("tamper flagged %q", res.Tamper.Rule)
	}

	out := checkRender(t, res, "a2b75ac3ec0dcb0e")
	for _, want := range []string{
		"bit for bit", "sealed", "first degraded transition", "imbalance_violation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered artifact missing %q", want)
		}
	}
}
