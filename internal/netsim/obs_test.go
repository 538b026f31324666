package netsim

import (
	"cmp"
	"path/filepath"
	"reflect"
	"testing"

	"lmbalance/internal/obs"
)

// TestRunPublishesObs checks that a run with a registry attached
// publishes totals that agree with the Result it returns.
func TestRunPublishesObs(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{N: 8, Delta: 2, F: 1.5, Steps: 400, Seed: 11, Obs: reg,
		GenP: []float64{0.5}, ConP: []float64{0.4}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gen, ini int64
	for _, n := range res.Nodes {
		gen += n.Generated
		ini += n.Initiated
	}
	if got := reg.Counter("netsim_generated_total").Value(); got != gen {
		t.Fatalf("netsim_generated_total = %d, want %d", got, gen)
	}
	if got := reg.Counter("netsim_protocols_initiated_total").Value(); got != ini {
		t.Fatalf("netsim_protocols_initiated_total = %d, want %d", got, ini)
	}
	if got := reg.Counter("netsim_msgs_total").Value(); got != res.Messages() {
		t.Fatalf("netsim_msgs_total = %d, want %d", got, res.Messages())
	}
	lh := reg.Histogram("netsim_final_load", obs.LoadBuckets)
	if got := lh.Count(); got != int64(cfg.N) {
		t.Fatalf("final load histogram has %d samples, want %d", got, cfg.N)
	}
	if int64(lh.Sum()) != int64(res.TotalLoad()) {
		t.Fatalf("final load histogram sum %v, want %d", lh.Sum(), res.TotalLoad())
	}
}

// TestObserversChangeNoResult pins the observer effect on virtual time at
// zero: a grid world's Result is identical with a flight recorder per node
// and a registry attached and without them, over 60 drawWorld seeds.
func TestObserversChangeNoResult(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		w := drawWorld(seed)
		bare, err := Run(w.cfg)
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		cfg := w.cfg
		cfg.Obs = obs.NewRegistry()
		if cfg.Flight, err = Record(filepath.Join(t.TempDir(), "flight"), cfg.N); err != nil {
			t.Fatal(err)
		}
		observed, err := Run(cfg)
		for _, rec := range cfg.Flight {
			err = cmp.Or(err, rec.Close())
		}
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		if !reflect.DeepEqual(bare, observed) {
			t.Fatalf("%v: observers changed the result:\nbare     %+v\nobserved %+v", w, bare, observed)
		}
	}
}
