package experiments

import (
	"fmt"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/netsim"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/serve"
	"lmbalance/internal/workload"
)

// serveSlot is the serving experiments' service clock: one netsim tick
// is one 200 µs step slot, so a node with consume probability ConP
// serves ConP/serveSlot units per second of virtual time.
const serveSlot = 200 * time.Microsecond

// servedUnit is one completed unit: its job's origin node, and its
// sojourn and that sojourn's components, in slots.
type servedUnit struct {
	origin  int
	sojourn int64
	parts   cluster.JourneyParts
}

// servedRun is the outcome of one open-loop serving workload on virtual
// time.
type servedRun struct {
	res      *netsim.Result
	sojourns []float64 // seconds, one per completed job
	hops     int64     // summed over completed jobs: the most hops any of its units took
	units    []servedUnit
	last     time.Duration // virtual time of the last completion
}

// serveOnNetsim replays arrivals open loop against a netsim world of
// serve-mode nodes: each is ingested at the start of the slot it falls
// in, on the node spec.Target draws from rng.New(Seed+1) (Arrival.Node
// is not read). cfg supplies N, Delta, F, ConP, Seed and NoBalance; the
// nodes generate nothing and take one step per tick for twice the
// arrivals' span, so the backlog has as long again to drain. A unit is
// done at the end of the slot that completes it, so a job's sojourn is
// at least one slot. reg, when non-nil, gets each job's sojourn in
// serve's per-node histogram, the family the health monitor watches;
// poll, when non-nil, runs after every tick with the virtual time. It
// fails unless packets and jobs are conserved and every unit was served.
func serveOnNetsim(cfg netsim.Config, arrivals []workload.Arrival, spec serve.LoadSpec,
	reg *obs.Registry, poll func(now time.Duration)) (*servedRun, error) {
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("serving: no arrivals")
	}
	slotOf := func(at time.Duration) int64 { return int64(at/serveSlot) + 1 }
	type job struct {
		at         int64 // ingest tick
		left, hops int   // units not yet done; most hops any unit took
	}
	jobs := make([]job, len(arrivals))
	out := &servedRun{}
	complete := func(origin int, id uint64, jn cluster.Journey) {
		j := &jobs[id-1]
		j.left--
		j.hops = max(j.hops, jn.Hops)
		jn.DoneNS++                // done at the end of the completing slot
		parts, _ := jn.Parts(j.at) // virtual time stamps every record
		out.units = append(out.units, servedUnit{origin, jn.DoneNS - j.at, parts})
		if j.left > 0 {
			return
		}
		sojourn := slotSeconds(jn.DoneNS - j.at)
		out.sojourns = append(out.sojourns, sojourn)
		out.hops += int64(j.hops)
		out.last = time.Duration(jn.DoneNS) * serveSlot
		if reg != nil {
			reg.Histogram(serve.SojournMetric(origin), obs.SojournBuckets).Observe(sojourn)
		}
	}
	cfg.ServePerNode = make([]*cluster.ServeHooks, cfg.N)
	for i := range cfg.ServePerNode {
		cfg.ServePerNode[i] = &cluster.ServeHooks{
			Complete: func(id uint64, jn cluster.Journey) { complete(i, id, jn) },
		}
	}
	cfg.GenP = []float64{0}
	cfg.Steps = int(2 * slotOf(arrivals[len(arrivals)-1].At))
	w, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed + 1)
	next := 0
	for tick := int64(1); !w.Done(); tick++ {
		for ; next < len(arrivals) && slotOf(arrivals[next].At) <= tick; next++ {
			units := arrivals[next].Units
			jobs[next] = job{at: tick, left: units}
			w.Nodes()[spec.Target(r, cfg.N)].Ingest(tick, cluster.Submit{ID: uint64(next + 1), Units: units})
		}
		if err := w.Tick(); err != nil {
			return nil, err
		}
		if poll != nil {
			poll(time.Duration(tick) * serveSlot)
		}
	}
	out.res = w.Result()
	switch res := out.res; {
	case !res.Conserved():
		return nil, fmt.Errorf("packet conservation violated")
	case !res.JobsConserved():
		return nil, fmt.Errorf("job conservation violated (ingested %d, done %d, held %d)",
			res.Ingested(), res.UnitsDone(), res.RecordsHeld())
	case res.UnitsDone() != res.Ingested():
		return nil, fmt.Errorf("%d units stranded", res.Ingested()-res.UnitsDone())
	}
	return out, nil
}

// slotSeconds converts a count of service slots to seconds.
func slotSeconds(ticks int64) float64 { return (time.Duration(ticks) * serveSlot).Seconds() }
