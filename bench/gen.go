package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"lmbalance/internal/rng"
	"lmbalance/internal/workload"
)

// openJob is one scheduled open-loop submission.
type openJob struct {
	due   time.Duration // offset from the start of the rung
	conn  int           // client connection (= front-end) it is sent on
	units int
}

// skewRate is a rung's offered rate in jobs per second.
func skewRate(share float64) float64 {
	return share * skewCapacity / skewDemand.Mean()
}

// skewSchedule generates rung's arrival schedule: Poisson arrivals at
// the rung's rate with bounded-Pareto sizes from one stream, front-end
// placement from another, so changing the placement rule would not
// shift the arrival times.
func skewSchedule(seed uint64, rung int, horizon time.Duration) ([]openJob, error) {
	part := rng.NewPartition(rng.Mix64(seed, uint64(rung)))
	spec := workload.ArrivalSpec{
		Env:     workload.RateEnvelope{{Dur: horizon, Rate: skewRate(skewRungs[rung].share)}},
		Demand:  skewDemand,
		Horizon: horizon,
	}
	arr, err := spec.Schedule(part.Stream(streamSkew, idxArrivals))
	if err != nil {
		return nil, fmt.Errorf("skew schedule: %w", err)
	}
	place := part.Stream(streamSkew, idxPlacement)
	jobs := make([]openJob, len(arr))
	for i, a := range arr {
		conn := 1
		if place.Bernoulli(skewHotShare) {
			conn = 0
		}
		jobs[i] = openJob{due: a.At, conn: conn, units: a.Units}
	}
	return jobs, nil
}

// scheduleDigest hashes a schedule's every field, so two schedules with
// the same digest are byte-identical inputs.
func scheduleDigest(jobs []openJob) [32]byte {
	h := sha256.New()
	var b [24]byte
	for _, j := range jobs {
		binary.LittleEndian.PutUint64(b[0:], uint64(j.due))
		binary.LittleEndian.PutUint64(b[8:], uint64(j.conn))
		binary.LittleEndian.PutUint64(b[16:], uint64(j.units))
		h.Write(b[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// clusterSeed is the seed handed to a workload's cluster (or simulator):
// the only thing of the benchmark seed the program under test sees.
func clusterSeed(seed uint64, kind rng.StreamKind, run int) uint64 {
	return rng.NewPartition(rng.Mix64(seed, uint64(run))).Seed(kind, idxCluster)
}
