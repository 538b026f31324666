package experiments

import (
	"strings"
	"testing"
)

func TestStarvationQuick(t *testing.T) {
	res, err := Starvation(ScaleQuick, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(res.Rows))
	}
	byName := map[string]StarvationRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.ZeroFraction < 0 || row.ZeroFraction > 1 {
			t.Fatalf("%s: zero fraction %v out of range", row.Name, row.ZeroFraction)
		}
		if row.WorstProcessor < row.ZeroFraction-1e-9 {
			t.Fatalf("%s: worst processor %v below average %v", row.Name, row.WorstProcessor, row.ZeroFraction)
		}
	}
	lm := byName["LM(f=1.1,δ=1)"]
	nob := byName["nobalance"]
	// Without balancing, the 28 cold processors starve (~constantly);
	// with LM they must starve far less.
	if nob.ZeroFraction < 0.4 {
		t.Fatalf("no-balance starvation %v suspiciously low", nob.ZeroFraction)
	}
	if lm.ZeroFraction > nob.ZeroFraction/3 {
		t.Fatalf("LM starvation %v not clearly below no-balance %v", lm.ZeroFraction, nob.ZeroFraction)
	}
	if !strings.Contains(checkRender(t, res, "348e8c2bf8c41bfc"), "starvation") {
		t.Fatal("render missing title")
	}
}
