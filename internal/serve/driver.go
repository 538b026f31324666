package serve

import (
	"fmt"
	"time"

	"lmbalance/internal/rng"
	"lmbalance/internal/workload"
)

// LoadSpec is the skew policy the driver applies to arrivals that are
// not pinned to a node (workload.Arrival.Node < 0): with probability
// HotFrac the job goes to one of the first HotN nodes (uniformly),
// otherwise uniformly to the rest. HotN <= 0 disables the skew and
// unpinned arrivals spread uniformly. This is the production shape the
// balancing protocol exists for — a few front-ends taking most of the
// traffic while the cluster as a whole has headroom.
type LoadSpec struct {
	HotFrac float64
	HotN    int
}

// Target picks the node index for one unpinned arrival.
func (s LoadSpec) Target(r *rng.RNG, n int) int {
	if s.HotN <= 0 || s.HotN >= n {
		return r.Intn(n)
	}
	if r.Bernoulli(s.HotFrac) {
		return r.Intn(s.HotN)
	}
	return s.HotN + r.Intn(n-s.HotN)
}

// DriveResult is the client-side outcome of one driven run.
type DriveResult struct {
	Submitted int64
	Completed int64
	Sojourns  []float64 // seconds, server-stamped, all clients merged
	Elapsed   time.Duration
}

// P returns the exact q-quantile of the observed sojourns, in seconds.
func (d *DriveResult) P(q float64) float64 { return Quantile(d.Sojourns, q) }

// Throughput returns completed jobs per second of driving wall time.
func (d *DriveResult) Throughput() float64 {
	if d.Elapsed <= 0 {
		return 0
	}
	return float64(d.Completed) / d.Elapsed.Seconds()
}

// Drive replays a schedule of arrivals against a serving cluster, open
// loop: one client per address, each arrival submitted at its offset
// from the driving start regardless of how the cluster is keeping up.
// After the last submission it waits — up to timeout — for every
// submitted job to complete, then returns the merged client-side view.
// Jobs still missing at the deadline are simply absent from Sojourns
// (Completed < Submitted tells the caller).
func Drive(addrs []string, arrivals []workload.Arrival, spec LoadSpec, seed uint64, timeout time.Duration) (*DriveResult, error) {
	n := len(addrs)
	if n == 0 {
		return nil, fmt.Errorf("serve: no addresses to drive")
	}
	clients := make([]*Client, n)
	for i, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			for _, cc := range clients[:i] {
				cc.Close()
			}
			return nil, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// Every arrival already due is staged on its client; the staged
	// frames leave — one write per client — before the generator next
	// sleeps and after the last arrival.
	flush := func() error {
		for i, c := range clients {
			if err := c.flushPending(); err != nil {
				return fmt.Errorf("serve: submit to %s: %w", addrs[i], err)
			}
		}
		return nil
	}
	r := rng.New(seed)
	start := time.Now()
	for _, a := range arrivals {
		if d := time.Until(start.Add(a.At)); d > 0 {
			if err := flush(); err != nil {
				return nil, err
			}
			time.Sleep(d)
		}
		node := a.Node
		if node < 0 {
			node = spec.Target(r, n)
		}
		if node >= n {
			node = node % n
		}
		if err := clients[node].submitLater(a.Units); err != nil {
			return nil, fmt.Errorf("serve: submit to %s: %w", addrs[node], err)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	res := &DriveResult{}
	for _, c := range clients {
		res.Submitted += c.Submitted()
	}
	deadline := time.Now().Add(timeout)
	for {
		var done int64
		for _, c := range clients {
			done += c.Completed()
		}
		if done >= res.Submitted || time.Now().After(deadline) {
			res.Completed = done
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Elapsed = time.Since(start)
	for _, c := range clients {
		res.Sojourns = append(res.Sojourns, c.Sojourns()...)
	}
	return res, nil
}
