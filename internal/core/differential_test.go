package core

import (
	"fmt"
	"testing"

	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
)

// TestSparseMatchesDenseReference is the proof obligation of the sparse
// storage rework: driven off identical RNG streams, the sparse System and
// the dense reference implementation must be step-for-step bit-identical —
// same d and b matrices, same loads, same trigger state, same metrics.
// Two sparse systems take every operation: one through the sequential
// Generate/Consume, one through a Lane over all of it (laneDriver), so the
// sharded engine's entry points are held to the reference too. Cheap
// per-processor state is compared after every operation; the full n×n
// matrices and the sparse invariants are checked periodically and at the
// end.
func TestSparseMatchesDenseReference(t *testing.T) {
	configs := []struct {
		n    int
		p    Params
		genP float64
		// singles is the least share of the nonzero cells that must be one
		// packet with no marker (d = 1, b = 0) at every full comparison in
		// the second half of the run: the arm with it set exists to keep the
		// kernel's walk over runs of such cells under the differential.
		singles float64
	}{
		{n: 4, p: Params{F: 1.1, Delta: 1, C: 1}, genP: 0.55},
		{n: 8, p: DefaultParams(), genP: 0.55},
		{n: 12, p: Params{F: 1.5, Delta: 3, C: 2}, genP: 0.55},
		{n: 16, p: Params{F: 1.0, Delta: 2, C: 3}, genP: 0.55},
		{n: 24, p: Params{F: 1.8, Delta: 2, C: 6}, genP: 0.55},
		{n: 9, p: Params{F: 1.1, Delta: 1, C: 4, InitiatorOnlyReset: true}, genP: 0.55},
		// Many processors, a few packets each: a row is mostly foreign
		// classes it holds one packet of, as at the benchmark's size.
		{n: 96, p: Params{F: 1.1, Delta: 1, C: 4}, genP: 0.6, singles: 0.9},
	}
	const steps = 12000
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("n=%d_f=%g_δ=%d_C=%d", cfg.n, cfg.p.F, cfg.p.Delta, cfg.p.C), func(t *testing.T) {
			seed := uint64(1000 + 17*ci)
			newSparse := func() *System {
				s, err := NewSystem(cfg.n, cfg.p, topology.NewGlobal(cfg.n), rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			seq, viaLane := newSparse(), newSparse()
			arms := []arm{{"sequential", seq, seq}, {"lane", viaLane, newLaneDriver(viaLane)}}
			dense := newDenseSystem(cfg.n, cfg.p, topology.NewGlobal(cfg.n), rng.New(seed))
			op := rng.New(seed + 7777)

			compareFull := func(step int) {
				t.Helper()
				for _, a := range arms {
					if err := diffDense(a.sys, dense); err != nil {
						t.Fatalf("%s, step %d: %v", a.name, step, err)
					}
					if share := singlesShare(a.sys); step >= steps/2 && share < cfg.singles {
						t.Fatalf("%s, step %d: %.3f of the nonzero cells are d = 1, b = 0; the arm needs %.2f to exercise the kernel's run path",
							a.name, step, share, cfg.singles)
					}
				}
			}

			for step := 0; step < steps; step++ {
				i := op.Intn(cfg.n)
				if op.Bernoulli(cfg.genP) {
					for _, a := range arms {
						a.step.Generate(i)
					}
					dense.Generate(i)
				} else {
					gotD := dense.Consume(i)
					for _, a := range arms {
						if gotS := a.step.Consume(i); gotS != gotD {
							t.Fatalf("%s, step %d: Consume(%d) sparse=%v dense=%v", a.name, step, i, gotS, gotD)
						}
					}
				}
				for _, a := range arms {
					sparse := a.sys
					for p := 0; p < cfg.n; p++ {
						if sparse.Load(p) != dense.l[p] ||
							sparse.Borrowed(p) != dense.bTot[p] ||
							sparse.TriggerBase(p) != dense.lOld[p] ||
							sparse.LocalTime(p) != dense.localT[p] {
							t.Fatalf("%s, step %d: processor %d diverged: l %d/%d bTot %d/%d lOld %d/%d t' %d/%d",
								a.name, step, p,
								sparse.Load(p), dense.l[p],
								sparse.Borrowed(p), dense.bTot[p],
								sparse.TriggerBase(p), dense.lOld[p],
								sparse.LocalTime(p), dense.localT[p])
						}
					}
					if sparse.Metrics() != dense.metrics {
						t.Fatalf("%s, step %d: metrics diverged:\nsparse %+v\ndense  %+v",
							a.name, step, sparse.Metrics(), dense.metrics)
					}
				}
				if step%251 == 0 {
					compareFull(step)
				}
			}
			compareFull(steps)
			if m := arms[0].sys.Metrics(); m.BalanceOps == 0 || m.TotalBorrow == 0 {
				t.Fatalf("degenerate run, differential coverage too weak: %+v", m)
			}
		})
	}
}

// stepper is what takes a differential test's operations: a System, or a
// laneDriver over one.
type stepper interface {
	Generate(i int)
	Consume(i int) bool
}

// arm is one sparse system under a differential test and the path its
// operations take.
type arm struct {
	name string
	sys  *System
	step stepper
}

// laneDriver drives a System op by op through one Lane over all of its
// processors, acting on what the lane reports as the sequential path
// would: a reported trigger gets the balancing operation Generate or
// Consume fires, a reported needSettle gets SettleConsume, and the lane's
// counters are absorbed after every operation. Held in lockstep with the
// dense reference, it checks the trigger/settle deferral contract the
// sharded engine relies on.
type laneDriver struct {
	*System
	lane *Lane
}

func newLaneDriver(s *System) laneDriver { return laneDriver{s, s.NewLane(0, s.N())} }

func (d laneDriver) Generate(i int) {
	if d.lane.Generate(i, d.rng) {
		d.ForceBalance(i)
	}
	d.AbsorbMetrics(d.lane.TakeMetrics())
}

func (d laneDriver) Consume(i int) bool {
	consumed, trigger, needSettle := d.lane.Consume(i, d.rng)
	if trigger {
		d.ForceBalance(i)
	}
	if needSettle {
		consumed = d.SettleConsume(i, d.rng)
	}
	d.AbsorbMetrics(d.lane.TakeMetrics())
	return consumed
}

// TestSparseMatchesDenseOnDrain runs both implementations through a
// generate-heavy phase followed by a full drain (consume until the system
// is empty), hammering the borrow/settle/classBalance paths where the
// active sets shrink back to nothing, and requires identical states
// throughout plus a fully compacted sparse system at the end.
func TestSparseMatchesDenseOnDrain(t *testing.T) {
	const n = 10
	p := Params{F: 1.2, Delta: 2, C: 3}
	seed := uint64(4242)
	sparse, err := NewSystem(n, p, topology.NewGlobal(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	dense := newDenseSystem(n, p, topology.NewGlobal(n), rng.New(seed))
	op := rng.New(seed + 1)
	for step := 0; step < 4000; step++ {
		i := op.Intn(n)
		sparse.Generate(i)
		dense.Generate(i)
	}
	// Drain only from the upper half so the lower half's classes must be
	// settled remotely through borrows.
	for guard := 0; sparse.TotalLoad() > 0 && guard < 200000; guard++ {
		i := n/2 + op.Intn(n-n/2)
		gotS := sparse.Consume(i)
		gotD := dense.Consume(i)
		if gotS != gotD {
			t.Fatalf("drain: Consume(%d) sparse=%v dense=%v", i, gotS, gotD)
		}
		if !gotS {
			// This processor drained; a full sweep empties stragglers.
			for j := 0; j < n; j++ {
				gS := sparse.Consume(j)
				gD := dense.Consume(j)
				if gS != gD {
					t.Fatalf("drain sweep: Consume(%d) sparse=%v dense=%v", j, gS, gD)
				}
			}
		}
	}
	if sparse.TotalLoad() != 0 {
		t.Fatalf("system not drained: %d packets left", sparse.TotalLoad())
	}
	if sparse.Metrics() != dense.metrics {
		t.Fatalf("metrics diverged:\nsparse %+v\ndense  %+v", sparse.Metrics(), dense.metrics)
	}
	for p0 := 0; p0 < n; p0++ {
		for j := 0; j < n; j++ {
			if sparse.D(p0, j) != dense.d[p0*n+j] || sparse.B(p0, j) != dense.b[p0*n+j] {
				t.Fatalf("cell (%d,%d) diverged", p0, j)
			}
		}
	}
	if err := sparse.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every real packet is gone; only borrow markers may remain. The
	// active sets must have compacted down to exactly the marker cells.
	if nnz := sparse.NNZ(); nnz != countDenseNNZ(dense) {
		t.Fatalf("NNZ %d does not match dense nonzero count %d", nnz, countDenseNNZ(dense))
	}
}

// diffDense compares every cell, every per-processor total and the
// counters of the sparse system with the dense reference, and checks the
// sparse bookkeeping (CheckInvariants: self entry in the header, both
// tail lists sorted and canonical, sums and conservation).
func diffDense(sparse *System, dense *denseSystem) error {
	n := dense.n
	for p := 0; p < n; p++ {
		for j := 0; j < n; j++ {
			if sparse.D(p, j) != dense.d[p*n+j] {
				return fmt.Errorf("d[%d][%d] sparse=%d dense=%d", p, j, sparse.D(p, j), dense.d[p*n+j])
			}
			if sparse.B(p, j) != dense.b[p*n+j] {
				return fmt.Errorf("b[%d][%d] sparse=%d dense=%d", p, j, sparse.B(p, j), dense.b[p*n+j])
			}
		}
		if sparse.Load(p) != dense.l[p] || sparse.Borrowed(p) != dense.bTot[p] {
			return fmt.Errorf("processor %d: l %d/%d bTot %d/%d", p, sparse.Load(p), dense.l[p], sparse.Borrowed(p), dense.bTot[p])
		}
	}
	if sparse.Metrics() != dense.metrics {
		return fmt.Errorf("metrics diverged:\nsparse %+v\ndense  %+v", sparse.Metrics(), dense.metrics)
	}
	return sparse.CheckInvariants()
}

// TestBalanceKernelEdgeCases puts hand-built states through the balance
// kernel and through the dense reference's two-pass redistribution, for
// every start offset the one Intn(np) draw can produce. The rows are the
// shapes the merge has to get right: where the header's self entry slots in,
// which participants hold a class, which of a class's two totals is zero,
// and where a run of classes only one participant holds starts, ends and
// has to leave the one-packet walk.
func TestBalanceKernelEdgeCases(t *testing.T) {
	type cell struct{ p, cls, d, b int }
	const n = 8
	cases := []struct {
		name  string
		delta int
		set   []int // participants of a full operation; nil: class recovery
		owner int   // class recovery: owner and borrower
		extra int
		cells []cell
	}{
		{name: "nothing to distribute", delta: 1, set: []int{3, 5}},
		{name: "self class inactive, foreign classes on both sides of it", delta: 1, set: []int{3, 5},
			cells: []cell{{3, 1, 2, 0}, {3, 6, 1, 1}, {5, 5, 4, 0}, {5, 0, 3, 0}}},
		{name: "self class is the only active class", delta: 1, set: []int{3, 5},
			cells: []cell{{3, 3, 7, 0}}},
		{name: "self class below and above every tail class", delta: 1, set: []int{0, 7},
			cells: []cell{{0, 0, 3, 0}, {0, 4, 1, 0}, {7, 7, 2, 1}, {7, 4, 2, 0}}},
		{name: "a class held by every participant, another by exactly one", delta: 2, set: []int{1, 4, 6},
			cells: []cell{{1, 2, 3, 0}, {4, 2, 1, 1}, {6, 2, 5, 0}, {4, 7, 1, 0}}},
		{name: "self class of one participant in another's tail only", delta: 1, set: []int{2, 6},
			cells: []cell{{6, 2, 5, 0}, {6, 6, 1, 0}}},
		{name: "self class of one participant in its own entry and another's tail", delta: 2, set: []int{2, 6, 0},
			cells: []cell{{2, 2, 4, 0}, {6, 2, 3, 1}, {0, 2, 0, 1}, {0, 0, 2, 0}, {6, 0, 1, 0}}},
		{name: "d total zero, b total not: the entry survives with d = 0", delta: 1, set: []int{1, 2},
			cells: []cell{{1, 5, 0, 1}, {2, 5, 0, 1}, {2, 6, 0, 1}, {1, 1, 3, 0}}},
		{name: "own-class markers land on the owner", delta: 1, set: []int{1, 2},
			cells: []cell{{2, 1, 1, 1}, {2, 2, 2, 0}}},
		{name: "five participants, totals above and below np", delta: 4, set: []int{7, 0, 3, 4, 1},
			cells: []cell{{7, 7, 23, 0}, {0, 7, 4, 1}, {3, 2, 1, 0}, {4, 2, 1, 1}, {1, 1, 9, 0}, {1, 5, 0, 1}, {0, 6, 6, 0}, {3, 3, 1, 0}}},
		{name: "a run ends at its holder's pinned self entry and goes on after it", delta: 1, set: []int{5, 2},
			cells: []cell{{5, 0, 1, 0}, {5, 1, 1, 0}, {5, 3, 1, 0}, {5, 5, 3, 0}, {5, 6, 1, 0}, {2, 7, 1, 0}}},
		{name: "a run class is a recipient's own id: it lands in the pinned entry", delta: 1, set: []int{3, 5},
			cells: []cell{{3, 1, 1, 0}, {3, 5, 1, 0}, {3, 6, 1, 0}, {5, 0, 1, 0}}},
		{name: "d ≥ np and b > 0 in the middle of a run", delta: 1, set: []int{1, 4},
			cells: []cell{{1, 0, 1, 0}, {1, 2, 5, 0}, {1, 3, 1, 0}, {1, 5, 1, 1}, {1, 6, 1, 0}, {4, 7, 1, 0}}},
		{name: "two runs separated by one shared class", delta: 1, set: []int{1, 4},
			cells: []cell{{1, 0, 1, 0}, {1, 2, 1, 0}, {1, 3, 1, 0}, {1, 5, 1, 0}, {1, 6, 1, 0}, {4, 3, 1, 0}, {4, 7, 1, 0}}},
		{name: "every class shared: no run at all", delta: 1, set: []int{1, 4},
			cells: []cell{{1, 0, 1, 0}, {4, 0, 1, 0}, {1, 1, 2, 0}, {4, 1, 1, 0}, {1, 6, 1, 0}, {4, 6, 1, 1}}},
		{name: "five participants, one with nothing but its zero self entry", delta: 4, set: []int{7, 0, 3, 4, 1},
			cells: []cell{{7, 2, 1, 0}, {7, 5, 1, 0}, {0, 0, 1, 0}, {0, 3, 1, 0}, {0, 6, 1, 0}, {4, 1, 1, 0}, {4, 5, 1, 0}, {1, 6, 1, 0}, {1, 7, 1, 0}}},
		// δ = 1 rows for the two-tail interleave: what it deals, and each
		// head that makes it hand over to a round.
		{name: "δ = 1 rows alternate class by class until one tail ends", delta: 1, set: []int{6, 7},
			cells: []cell{{6, 0, 1, 0}, {7, 1, 1, 0}, {6, 2, 1, 0}, {7, 3, 1, 0}, {6, 4, 1, 0}, {7, 5, 1, 0}}},
		{name: "δ = 1 interleave stops at each lane's pinned self class", delta: 1, set: []int{2, 5},
			cells: []cell{{2, 2, 2, 0}, {5, 5, 3, 0}, {5, 0, 1, 0}, {2, 1, 1, 0}, {5, 3, 1, 0}, {2, 4, 1, 0}, {2, 6, 1, 0}, {5, 7, 1, 0}}},
		{name: "δ = 1 interleave stops at a two-packet entry", delta: 1, set: []int{6, 7},
			cells: []cell{{6, 0, 1, 0}, {7, 1, 1, 0}, {6, 2, 2, 0}, {7, 3, 1, 0}, {6, 4, 1, 0}, {7, 5, 1, 0}}},
		{name: "δ = 1 interleave stops at a marker", delta: 1, set: []int{6, 7},
			cells: []cell{{6, 0, 1, 0}, {7, 1, 1, 0}, {6, 2, 1, 1}, {7, 3, 0, 1}, {6, 4, 1, 0}, {7, 5, 1, 0}}},
		{name: "δ = 1 interleave stops at a shared class", delta: 1, set: []int{6, 7},
			cells: []cell{{6, 0, 1, 0}, {7, 1, 1, 0}, {6, 2, 1, 0}, {7, 2, 2, 0}, {6, 3, 1, 0}, {7, 4, 1, 0}, {6, 5, 1, 0}}},
		{name: "δ = 1 interleave stops at the end of one tail, a run finishes the other", delta: 1, set: []int{6, 7},
			cells: []cell{{6, 0, 1, 0}, {7, 1, 1, 0}, {7, 2, 1, 0}, {7, 3, 1, 0}, {7, 4, 2, 0}, {7, 5, 1, 0}}},
		{name: "δ = 1 interleave deals a recipient's own id into its pinned entry", delta: 1, set: []int{3, 5},
			cells: []cell{{5, 0, 1, 0}, {3, 1, 1, 0}, {5, 2, 1, 0}, {3, 5, 1, 0}, {5, 6, 1, 0}, {3, 7, 1, 0}}},
		{name: "class recovery: np = δ+2, single class, other classes untouched", delta: 2, owner: 4, extra: 1,
			cells: []cell{{1, 4, 0, 1}, {1, 6, 2, 0}, {0, 4, 2, 0}, {2, 4, 1, 1}, {3, 4, 3, 0}, {5, 4, 1, 0}, {6, 4, 2, 0}, {7, 4, 1, 0}, {7, 2, 1, 0}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			widest := tc.delta + 2
			if tc.set == nil {
				widest = 0
			}
			for seed := uint64(0); seed < 24; seed++ {
				p := Params{F: 1.1, Delta: tc.delta, C: 4}
				sparse, err := NewSystem(n, p, topology.NewGlobal(n), rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				dense := newDenseSystem(n, p, topology.NewGlobal(n), rng.New(seed))
				for _, c := range tc.cells {
					row := &sparse.rows[c.p]
					row.add(c.cls, c.d, c.b)
					row.l += c.d
					row.bTot += c.b
					sparse.metrics.Generated += int64(c.d)
					dense.d[c.p*n+c.cls] += c.d
					dense.b[c.p*n+c.cls] += c.b
					dense.l[c.p] += c.d
					dense.bTot[c.p] += c.b
					dense.metrics.Generated += int64(c.d)
				}
				if tc.set == nil {
					sparse.classBalance(tc.owner, tc.extra, sparse.rng, sparse.sc, &sparse.metrics)
					dense.classBalance(tc.owner, tc.extra)
					// The borrower joins as participant δ+2 unless the owner
					// drew it as a candidate anyway.
					widest = max(widest, len(sparse.sc.setBuf))
				} else {
					sparse.balanceSet(tc.set[0], tc.set[1:], sparse.rng.Intn(len(tc.set)), sparse.sc, &sparse.metrics)
					dense.balanceSet(tc.set)
				}
				if err := diffDense(sparse, dense); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for q := 0; q < n; q++ {
					if sparse.TriggerBase(q) != dense.lOld[q] || sparse.LocalTime(q) != dense.localT[q] {
						t.Fatalf("seed %d: processor %d: lOld %d/%d t' %d/%d", seed, q,
							sparse.TriggerBase(q), dense.lOld[q], sparse.LocalTime(q), dense.localT[q])
					}
				}
			}
			if widest != tc.delta+2 {
				t.Fatalf("class recovery never ran over δ+2 = %d participants (widest set: %d)", tc.delta+2, widest)
			}
		})
	}
}

// singlesShare returns the share of the system's nonzero cells that hold
// one packet and no marker.
func singlesShare(s *System) float64 {
	singles, cells := 0, 0
	for i := range s.rows {
		row := &s.rows[i]
		for _, e := range append([]classEntry{row.own}, foreignCells(row)...) {
			if e.d == 0 && e.b == 0 {
				continue
			}
			cells++
			if e.d == 1 && e.b == 0 {
				singles++
			}
		}
	}
	if cells == 0 {
		return 0
	}
	return float64(singles) / float64(cells)
}

func countDenseNNZ(s *denseSystem) int {
	nnz := 0
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			if s.d[i*s.n+j] != 0 || s.b[i*s.n+j] != 0 {
				nnz++
			}
		}
	}
	return nnz
}
