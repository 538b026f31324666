package core

import (
	"fmt"

	"lmbalance/internal/rng"
)

// Lane is one shard's view of a System: the contiguous processor range
// [lo, hi), whose rows it holds as a sub-slice indexed by shard-local
// offset. A Lane's Generate and Consume are calls into the step rules the
// sequential Generate and Consume run (generateRow, consumeRow), with the
// lane's own counters. The rules touch only processor lo+li's row, so
// lanes over disjoint ranges may be driven concurrently, and instead of
// recursing into balancing or settlement they report trigger/settle
// conditions for the caller to defer into its mailbox. The sharded engine
// resolves those deferred operations at a deterministic tick barrier
// through the batched entry points in batch.go.
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

// Warm reads local processor li's row header and the heads of its tail's
// id list and other list (sparseRow.warm) and returns a value that depends
// on them; the caller keeps it so the loads are not optimised away. Like
// WarmOperation, it lets a caller overlap the cache misses of rows it is
// about to step.
func (ln *Lane) Warm(li int) int { return ln.rows[li].warm() }

// TakeMetrics returns the lane's counters and resets them to zero, so the
// engine can absorb them into the System exactly once.
func (ln *Lane) TakeMetrics() Metrics {
	m := ln.metrics
	ln.metrics = Metrics{}
	return m
}

// Generate runs the generate rule (generateRow) on local processor li.
// Where System.Generate balances at once, the lane reports the factor-f
// trigger for the caller to defer.
func (ln *Lane) Generate(li int, r *rng.RNG) (trigger bool) {
	return generateRow(&ln.rows[li], &ln.params, r, &ln.metrics)
}

// Consume runs the local consume rule (consumeRow) on local processor li.
// Where System.Consume would settle a marker, the lane reports needSettle
// and the caller defers the consume to the barrier, where
// System.SettleConsume completes and counts it. Assigning the named
// results, unlike returning the call, keeps the method within the
// inliner's budget, so a caller makes one call per consume.
func (ln *Lane) Consume(li int, r *rng.RNG) (consumed, trigger, needSettle bool) {
	consumed, trigger, needSettle = consumeRow(&ln.rows[li], &ln.params, r, &ln.metrics)
	return
}
