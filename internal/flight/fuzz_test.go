package flight_test

import (
	"os"
	"path/filepath"
	"testing"

	"lmbalance/internal/flight"
	"lmbalance/internal/netsim"
)

// FuzzDecodeSegment feeds the segment decoder arbitrary bytes, grown
// from the segments of one recorded netsim world, a torn copy of one and
// a segment holding a record of a reserved kind. Decoding must never
// panic and must return only records the recorder writes, and auditing
// what it returns must not panic either.
func FuzzDecodeSegment(f *testing.F) {
	// Three steps keep each seed near 350 bytes: the fuzzer minimizes every
	// new input in time quadratic in its length.
	cfg := netsim.Config{N: 3, Delta: 2, F: 1.5, Steps: 3, Seed: 3}
	var err error
	if cfg.Flight, err = netsim.Record("", cfg.N); err != nil {
		f.Fatal(err)
	}
	if _, err := netsim.Run(cfg); err != nil {
		f.Fatal(err)
	}
	var last []byte
	for _, rec := range cfg.Flight {
		segs, err := flight.SegmentBytes(rec)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range segs {
			f.Add(p)
			last = p
		}
	}
	f.Add(last[:len(last)-3])
	dir := f.TempDir()
	reserved := []flight.Event{{Dir: flight.DirLocal, Kind: 4, Args: []int64{1500}}}
	if err := flight.WriteDir(dir, 0, reserved); err != nil {
		f.Fatal(err)
	}
	p, err := os.ReadFile(filepath.Join(dir, "seg-00000000.lbfr"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p)

	f.Fuzz(func(t *testing.T, p []byte) {
		nr, err := flight.DecodeSegment(p)
		if err != nil {
			return
		}
		for i, ev := range nr.Events {
			switch ev.Dir {
			case flight.DirSend, flight.DirRecv:
			case flight.DirLocal:
				if !flight.Written(ev.Kind) {
					t.Fatalf("record %d decoded with kind %d, which no recorder writes", i, ev.Kind)
				}
			default:
				t.Fatalf("record %d decoded with dir %d", i, ev.Dir)
			}
		}
		flight.Audit(&flight.Recording{Nodes: []*flight.NodeRecording{nr}})
	})
}
