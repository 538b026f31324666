package stats

// LoadPartial is one shard's contribution to a per-tick load scan: the sum,
// minimum and maximum over the shard's processors. Partials from disjoint
// shards merge exactly (integer arithmetic throughout), so the sharded
// engine can replace the global O(n) min/max/avg scan with per-shard scans
// plus an S-way reduction whose result is independent of merge order.
type LoadPartial struct {
	Sum      int64
	Min, Max int
	Count    int
}

// Observe folds one processor load into the partial.
func (p *LoadPartial) Observe(v int) {
	if p.Count == 0 {
		p.Min, p.Max = v, v
	} else {
		if v < p.Min {
			p.Min = v
		}
		if v > p.Max {
			p.Max = v
		}
	}
	p.Sum += int64(v)
	p.Count++
}

// Merge combines another partial into p. Empty partials are identities.
func (p *LoadPartial) Merge(q LoadPartial) {
	if q.Count == 0 {
		return
	}
	if p.Count == 0 {
		*p = q
		return
	}
	if q.Min < p.Min {
		p.Min = q.Min
	}
	if q.Max > p.Max {
		p.Max = q.Max
	}
	p.Sum += q.Sum
	p.Count += q.Count
}

// Mean returns the average load, or 0 for an empty partial.
func (p LoadPartial) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return float64(p.Sum) / float64(p.Count)
}

// ReduceLoadPartials merges a slice of partials with a fixed-shape binary
// tree (stride doubling: 1, 2, 4, …) and returns the root. The tree shape
// depends only on len(ps), never on which goroutine produced which partial,
// so the reduction is deterministic; and because LoadPartial merging is
// exact integer arithmetic the result equals any other merge order — the
// tree is the canonical order the sharded engine commits to. ps is used as
// scratch (partials are merged in place).
func ReduceLoadPartials(ps []LoadPartial) LoadPartial {
	if len(ps) == 0 {
		return LoadPartial{}
	}
	for stride := 1; stride < len(ps); stride *= 2 {
		for i := 0; i+stride < len(ps); i += 2 * stride {
			ps[i].Merge(ps[i+stride])
		}
	}
	return ps[0]
}
