package core

import (
	"fmt"

	"lmbalance/internal/rng"
)

// Lane is one shard's view of a System: the contiguous processor range
// [lo, hi), whose rows it holds as a sub-slice indexed by shard-local
// offset. Lanes over disjoint ranges may be driven concurrently: a Lane's
// Generate and Consume touch only processor lo+li's row and the lane's own
// scratch and metrics, and instead of recursing into balancing or
// settlement they report trigger/settle conditions for the caller to defer
// into its mailbox. The sharded engine resolves those deferred operations
// at a deterministic tick barrier through the batched entry points in
// batch.go.
type Lane struct {
	params Params
	lo     int
	rows   []sparseRow // the System's rows[lo:hi]

	metrics Metrics

	// Lanes are allocated back to back and each is written on every
	// processor step (metrics); the padding keeps two lanes' writes off
	// one cache line.
	_ [CacheLine]byte
}

// NewLane returns the lane over processors [lo, hi).
func (s *System) NewLane(lo, hi int) *Lane {
	if lo < 0 || hi > s.n || lo >= hi {
		panic(fmt.Sprintf("core: invalid lane range [%d, %d) for n=%d", lo, hi, s.n))
	}
	return &Lane{params: s.params, lo: lo, rows: s.rows[lo:hi:hi]}
}

// Len returns the number of processors in the lane.
func (ln *Lane) Len() int { return len(ln.rows) }

// Global translates a shard-local offset to the global processor index.
func (ln *Lane) Global(li int) int { return ln.lo + li }

// Load returns the physical load of local processor li.
func (ln *Lane) Load(li int) int { return ln.rows[li].l }

// Warm reads local processor li's row header and the first entry of its
// tail and returns a value that depends on both; the caller keeps it so
// the loads are not optimised away. Like WarmOperation, it lets a caller
// overlap the cache misses of rows it is about to step.
func (ln *Lane) Warm(li int) int { return ln.rows[li].warm() }

// Metrics returns the lane's accumulated counters. The engine folds them
// into the System with AbsorbMetrics once the lane goes quiet (end of run,
// or before an invariant check).
func (ln *Lane) Metrics() Metrics { return ln.metrics }

// TakeMetrics returns the lane's counters and resets them to zero, so the
// engine can absorb them into the System exactly once.
func (ln *Lane) TakeMetrics() Metrics {
	m := ln.metrics
	ln.metrics = Metrics{}
	return m
}

// Generate adds one self-generated packet to local processor li, repaying
// a borrow marker if one is outstanding — identical to System.Generate
// except that instead of firing a balancing operation it reports whether
// the factor-f trigger condition now holds, for the caller to defer.
func (ln *Lane) Generate(li int, r *rng.RNG) (trigger bool) {
	row := &ln.rows[li]
	if row.bTot > 0 {
		j := randClass(row, false, r)
		row.add(j, +1, -1)
		row.bTot--
	} else {
		row.own.d++
	}
	row.l++
	ln.metrics.Generated++
	return trigFired(row, ln.params.F)
}

// Consume removes one packet from local processor li if it can do so
// locally: consuming a self packet, or borrowing when a borrow slot and a
// borrowable class are available. Both paths mutate only processor li's
// state. When the sequential algorithm would have to settle a marker first
// (no borrow slot left, or no borrowable class), the lane mutates nothing
// and reports needSettle; the caller defers the consume to the barrier,
// where System.SettleConsume completes it with the full sequential path.
// trigger reports the factor-f condition after a self-packet consume.
func (ln *Lane) Consume(li int, r *rng.RNG) (consumed, trigger, needSettle bool) {
	row := &ln.rows[li]
	if row.l == 0 {
		ln.metrics.ConsumeNoLoad++
		return false, false, false
	}
	if row.own.d > 0 {
		row.own.d--
		row.l--
		ln.metrics.Consumed++
		return true, trigFired(row, ln.params.F), false
	}
	if row.bTot < ln.params.C {
		j := randClass(row, true, r)
		if j >= 0 {
			row.add(j, -1, +1)
			row.bTot++
			row.l--
			ln.metrics.TotalBorrow++
			ln.metrics.Consumed++
			return true, false, false
		}
	}
	// Settlement required: defer without mutating (the metrics for the
	// completed consume are counted by SettleConsume at the barrier).
	return false, false, true
}
