package main

import (
	"errors"
	"fmt"
	"time"

	"lmbalance/internal/cluster"
)

// selfTest doctors the benchmark's own accounting, one fact at a time,
// and requires the matching output check to trip: a check that cannot
// fail checks nothing. Each case starts from a real, passing run.
func selfTest() error {
	c := &runCtx{seed: 1, seconds: 600 * time.Millisecond, sz: smokeSizes}

	// Serving path: a short closed-loop run, then lose one completion.
	arm, err := runFirehoseArm(c, c.seconds, nil, nil)
	if err != nil {
		return fmt.Errorf("firehose run: %w", err)
	}
	acct := arm.acct
	lost := acct
	lost.clientCompleted--
	stranded := acct
	res := *acct.res
	res.Nodes = append([]cluster.Stats(nil), acct.res.Nodes...)
	res.Nodes[0].UnitsDone--
	stranded.res = &res

	// Cluster: a short storm run, then mint one packet from nowhere.
	sr, err := runStormOnce(c, 0, c.sz.stormSteps)
	if err != nil {
		return fmt.Errorf("storm run: %w", err)
	}
	sres := sr.res
	minted := *sres
	minted.Nodes = append([]cluster.Stats(nil), sres.Nodes...)
	minted.Nodes[0].Generated++

	// Simulator: two identical chunks, then flip one digest byte.
	ch, err := runSimChunk(c, 1, c.sz.simChunkSteps, 0)
	if err != nil {
		return fmt.Errorf("sim run: %w", err)
	}
	good := simChecks{w1: ch.digest, wN: ch.digest, chunks: [][32]byte{ch.digest, ch.digest}}
	flipped := good
	flipped.chunks = [][32]byte{ch.digest, ch.digest}
	flipped.chunks[1][0] ^= 1
	workers := good
	workers.wN[0] ^= 1
	broken := good
	broken.invariantErr = errors.New("doctored: d-marker sum off by one")

	cases := []struct {
		name   string
		passes func() error // the undoctored accounting: must pass
		trips  func() error // the doctored one: must fail
	}{
		{"job conservation (one completion dropped at the client)", acct.check, lost.check},
		{"job conservation (one unit never reported done)", acct.check, stranded.check},
		{"packet conservation (one packet minted)", func() error { return checkStorm(sres) }, func() error { return checkStorm(&minted) }},
		{"result digest (one byte flipped)", good.check, flipped.check},
		{"cross-worker identity (Workers=N digest altered)", good.check, workers.check},
		{"CheckInvariants (an invariant error injected)", good.check, broken.check},
	}
	failed := 0
	for _, tc := range cases {
		if err := tc.passes(); err != nil {
			fmt.Printf("FAIL  %s: the real accounting does not pass: %v\n", tc.name, err)
			failed++
			continue
		}
		err := tc.trips()
		if err == nil {
			fmt.Printf("FAIL  %s: the doctored accounting passed\n", tc.name)
			failed++
			continue
		}
		fmt.Printf("ok    %s: tripped (%v)\n", tc.name, err)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d output checks did not trip", failed, len(cases))
	}
	fmt.Printf("selftest: all %d output checks trip\n", len(cases))
	return nil
}
