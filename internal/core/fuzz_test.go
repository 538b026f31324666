package core

import (
	"testing"

	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
)

// FuzzOpSequence drives a System with an arbitrary byte-encoded sequence
// of operations and checks every structural invariant — including the
// sparse active-set bookkeeping — as it goes. Each byte encodes
// (processor, op): op = b&1 (generate/consume), processor = (b>>1) % n.
// Parameters derive from the first four bytes. After the scripted
// sequence the whole system is drained through Consume, which hammers the
// borrow/settle/classBalance paths while the active sets compact back
// toward empty. The dense reference (dense_ref_test.go) takes every
// operation in lockstep on the same seed, and the first cell, total,
// trigger base, local clock or counter in which the two differ fails the
// input. The top bit of the first byte picks the sparse system's path:
// clear, the sequential Generate/Consume; set, a Lane over the whole
// system (laneDriver).
func FuzzOpSequence(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x30, 0x01, 0x02, 0x03, 0xff, 0x80})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0x00, 0x01, 0x02})
	// Generate-heavy prefix then consume-only tail: forces borrowing,
	// settlement and class recovery on the drained processors.
	f.Add([]byte{0x07, 0x01, 0x05, 0x02, 0x00, 0x04, 0x08, 0x0c, 0x00, 0x04,
		0x01, 0x05, 0x09, 0x0d, 0x01, 0x05, 0x09, 0x0d, 0x01, 0x05})
	// Single-producer, many consumers (hotspot shape).
	f.Add([]byte{0x20, 0x02, 0x10, 0x05, 0x00, 0x00, 0x00, 0x00, 0x03, 0x05,
		0x07, 0x09, 0x0b, 0x0d, 0x0f, 0x11, 0x13, 0x15, 0x17, 0x19})
	// The two shapes above again, through the Lane path.
	f.Add([]byte{0x87, 0x01, 0x05, 0x02, 0x00, 0x04, 0x08, 0x0c, 0x00, 0x04,
		0x01, 0x05, 0x09, 0x0d, 0x01, 0x05, 0x09, 0x0d, 0x01, 0x05})
	f.Add([]byte{0xa0, 0x02, 0x10, 0x05, 0x00, 0x00, 0x00, 0x00, 0x03, 0x05,
		0x07, 0x09, 0x0b, 0x0d, 0x0f, 0x11, 0x13, 0x15, 0x17, 0x19})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%14
		delta := 1 + int(data[1])%3
		if delta > n-1 {
			delta = n - 1
		}
		fv := 1.0 + float64(data[2]%90)/100.0 // 1.00..1.89
		if fv >= float64(delta)+1 {
			fv = float64(delta) + 0.9
		}
		c := 1 + int(data[3])%6
		params := Params{F: fv, Delta: delta, C: c}
		s, err := NewSystem(n, params, topology.NewGlobal(n), rng.New(uint64(len(data))))
		if err != nil {
			t.Fatalf("construction failed for derived params: %v", err)
		}
		dense := newDenseSystem(n, params, topology.NewGlobal(n), rng.New(uint64(len(data))))
		var path stepper = s
		if data[0]&0x80 != 0 {
			path = newLaneDriver(s)
		}
		// stage and k name the operation in a failure: "op 12", "drain 3".
		lockstep := func(stage string, k int) {
			t.Helper()
			if err := diffDense(s, dense); err != nil {
				t.Fatalf("%s %d: %v", stage, k, err)
			}
			for q := 0; q < n; q++ {
				if s.TriggerBase(q) != dense.lOld[q] || s.LocalTime(q) != dense.localT[q] {
					t.Fatalf("%s %d: processor %d: lOld %d/%d t' %d/%d", stage, k, q,
						s.TriggerBase(q), dense.lOld[q], s.LocalTime(q), dense.localT[q])
				}
			}
		}
		consume := func(p int, stage string, k int) {
			t.Helper()
			if got, want := path.Consume(p), dense.Consume(p); got != want {
				t.Fatalf("%s %d: Consume(%d) sparse=%v dense=%v", stage, k, p, got, want)
			}
		}
		for k, b := range data[4:] {
			p := (int(b) >> 1) % n
			if b&1 == 0 {
				path.Generate(p)
				dense.Generate(p)
			} else {
				consume(p, "op", k)
			}
			lockstep("op", k)
		}
		// Loads are consistent with the snapshot API.
		loads := s.Loads(nil)
		total := 0
		for i, v := range loads {
			if v != s.Load(i) {
				t.Fatalf("snapshot mismatch at %d", i)
			}
			total += v
		}
		if total != s.TotalLoad() {
			t.Fatal("TotalLoad mismatch")
		}
		// The sparse accessors agree with the row sums and the global NNZ.
		checkSparseAccessors(t, s)
		// Drain everything, exercising borrow, remote settlement and the
		// §4 class recovery while entries compact. A single Consume may
		// fail transiently while load remains (settlement can migrate the
		// last packets away mid-call), so progress is asserted only as a
		// generous overall round bound.
		maxRounds := 16 * (s.TotalLoad() + n + 1)
		for round := 0; s.TotalLoad() > 0; round++ {
			if round > maxRounds {
				t.Fatalf("drain stalled: %d packets left after %d rounds", s.TotalLoad(), round)
			}
			for p := 0; p < n; p++ {
				consume(p, "drain", round)
			}
			lockstep("drain", round)
		}
		checkSparseAccessors(t, s)
	})
}

// checkSparseAccessors cross-checks the public per-cell accessors against
// the per-processor aggregates and active-set counters: Σ_j D(i,j) must
// equal Load(i), Σ_j B(i,j) must equal Borrowed(i), the number of nonzero
// (D,B) cells must equal ActiveClasses(i), and NNZ must be their sum.
func checkSparseAccessors(t *testing.T, s *System) {
	t.Helper()
	n := s.N()
	nnz := 0
	for i := 0; i < n; i++ {
		sumD, sumB, active := 0, 0, 0
		for j := 0; j < n; j++ {
			d, b := s.D(i, j), s.B(i, j)
			sumD += d
			sumB += b
			if d != 0 || b != 0 {
				active++
			}
		}
		if sumD != s.Load(i) {
			t.Fatalf("proc %d: ΣD = %d but Load = %d", i, sumD, s.Load(i))
		}
		if sumB != s.Borrowed(i) {
			t.Fatalf("proc %d: ΣB = %d but Borrowed = %d", i, sumB, s.Borrowed(i))
		}
		if active != s.ActiveClasses(i) {
			t.Fatalf("proc %d: %d nonzero cells but ActiveClasses = %d", i, active, s.ActiveClasses(i))
		}
		nnz += active
	}
	if nnz != s.NNZ() {
		t.Fatalf("summed nonzero cells %d but NNZ() = %d", nnz, s.NNZ())
	}
}

// FuzzSnakeDistribute checks the balanced-remainder distribution on
// arbitrary class sequences: conservation, non-negativity, per-class ±1,
// per-participant grand totals ±1.
func FuzzSnakeDistribute(f *testing.F) {
	f.Add([]byte{3, 1, 10, 20, 0, 7})
	f.Add([]byte{8, 0, 255, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m := 1 + int(data[0])%9
		start := int(data[1])
		cur := newSnakeCursor(m, start)
		perProc := make([]int, m)
		for _, b := range data[2:] {
			total := int(b)
			sum := 0
			assigned := make([]int, m)
			cur.distribute(total, func(p, cnt int) {
				if cnt < 0 {
					t.Fatalf("negative assignment %d", cnt)
				}
				assigned[p] = cnt
				sum += cnt
			})
			if sum != total {
				t.Fatalf("conservation: distributed %d of %d", sum, total)
			}
			lo, hi := assigned[0], assigned[0]
			for _, v := range assigned {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				_ = v
			}
			if hi-lo > 1 {
				t.Fatalf("per-class spread %d", hi-lo)
			}
			for p := range perProc {
				perProc[p] += assigned[p]
			}
		}
		lo, hi := perProc[0], perProc[0]
		for _, v := range perProc {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 1 {
			t.Fatalf("grand-total spread %d", hi-lo)
		}
	})
}
