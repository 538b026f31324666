package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
)

func newTestSystem(t *testing.T, n int, p Params, seed uint64) *System {
	t.Helper()
	s, err := NewSystem(n, p, topology.NewGlobal(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	good := DefaultParams()
	if _, err := NewSystem(1, good, topology.NewGlobal(2), rng.New(1)); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewSystem(4, Params{F: 0.5, Delta: 1, C: 4}, topology.NewGlobal(4), rng.New(1)); err == nil {
		t.Fatal("F<1 accepted")
	}
	if _, err := NewSystem(4, Params{F: 2.0, Delta: 1, C: 4}, topology.NewGlobal(4), rng.New(1)); err == nil {
		t.Fatal("F >= Delta+1 accepted")
	}
	if _, err := NewSystem(4, Params{F: 1.1, Delta: 0, C: 4}, topology.NewGlobal(4), rng.New(1)); err == nil {
		t.Fatal("Delta=0 accepted")
	}
	if _, err := NewSystem(4, Params{F: 1.1, Delta: 1, C: 0}, topology.NewGlobal(4), rng.New(1)); err == nil {
		t.Fatal("C=0 accepted")
	}
	if _, err := NewSystem(4, good, topology.NewGlobal(8), rng.New(1)); err == nil {
		t.Fatal("selector size mismatch accepted")
	}
	if _, err := NewSystem(4, good, nil, rng.New(1)); err == nil {
		t.Fatal("nil selector accepted")
	}
	// Class ids are stored as int32; the check precedes every allocation.
	// (A 32-bit int cannot express the case.)
	if big := int64(math.MaxInt32) + 1; int64(int(big)) == big {
		if _, err := NewSystem(int(big), good, topology.NewGlobal(int(big)), rng.New(1)); err == nil {
			t.Fatal("n > MaxInt32 accepted")
		}
	}
	s, err := NewSystem(4, good, topology.NewGlobal(4), rng.New(1))
	if err != nil || s == nil {
		t.Fatalf("valid construction failed: %v", err)
	}
	if s.N() != 4 || s.Params() != good {
		t.Fatal("metadata wrong")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	// f = 1 is allowed by the theory (1 <= f).
	if err := (Params{F: 1, Delta: 1, C: 1}).Validate(); err != nil {
		t.Fatalf("f=1 rejected: %v", err)
	}
	// f = 1.8, δ = 1 is a paper experiment configuration.
	if err := (Params{F: 1.8, Delta: 1, C: 4}).Validate(); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
}

func TestGenerateConsumeRoundTrip(t *testing.T) {
	s := newTestSystem(t, 4, DefaultParams(), 7)
	s.Generate(0)
	if s.Load(0)+s.Load(1)+s.Load(2)+s.Load(3) != 1 {
		t.Fatal("one packet expected somewhere")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Consume it from wherever it landed.
	for i := 0; i < 4; i++ {
		if s.Load(i) > 0 {
			if !s.Consume(i) {
				t.Fatal("consume of loaded processor failed")
			}
			break
		}
	}
	if s.TotalLoad() != 0 {
		t.Fatalf("total load %d after one generate + one consume", s.TotalLoad())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConsumeEmptyFails(t *testing.T) {
	s := newTestSystem(t, 4, DefaultParams(), 8)
	if s.Consume(2) {
		t.Fatal("consume on empty processor succeeded")
	}
	if s.Metrics().ConsumeNoLoad != 1 {
		t.Fatal("ConsumeNoLoad not counted")
	}
}

func TestFirstGenerateTriggersBalance(t *testing.T) {
	// With lOld = 0 the first self packet (d=1 > 0 and 1 >= f·0) triggers.
	s := newTestSystem(t, 4, DefaultParams(), 9)
	s.Generate(0)
	if s.Metrics().BalanceOps != 1 {
		t.Fatalf("expected 1 balance op after first generate, got %d", s.Metrics().BalanceOps)
	}
}

func TestTriggerFactorIncrease(t *testing.T) {
	// Pure generation on processor 0 (no borrow markers ever arise), so
	// each Generate increments d[0][0] by exactly one and the trigger
	// predicate is fully observable: it must fire iff the new value d
	// satisfies d > lOld and d >= f·lOld.
	const f = 1.8
	s := newTestSystem(t, 2, Params{F: f, Delta: 1, C: 4}, 10)
	fired := 0
	for k := 0; k < 2000; k++ {
		lOld := s.TriggerBase(0)
		dAtTrigger := s.D(0, 0) + 1
		opsBefore := s.Metrics().BalanceOps
		s.Generate(0)
		gotFire := s.Metrics().BalanceOps > opsBefore
		wantFire := dAtTrigger > lOld && float64(dAtTrigger) >= f*float64(lOld)
		if gotFire != wantFire {
			t.Fatalf("step %d: d=%d lOld=%d fired=%v want=%v", k, dAtTrigger, lOld, gotFire, wantFire)
		}
		if gotFire {
			fired++
		}
	}
	if fired < 2 {
		t.Fatalf("balance fired only %d times in 2000 generates", fired)
	}
}

func TestLoadsSnapshot(t *testing.T) {
	s := newTestSystem(t, 4, DefaultParams(), 11)
	for i := 0; i < 20; i++ {
		s.Generate(i % 4)
	}
	loads := s.Loads(nil)
	if len(loads) != 4 {
		t.Fatal("wrong snapshot length")
	}
	sum := 0
	for i, v := range loads {
		if v != s.Load(i) {
			t.Fatal("snapshot mismatch")
		}
		sum += v
	}
	if sum != s.TotalLoad() || sum != 20 {
		t.Fatalf("sum %d, total %d", sum, s.TotalLoad())
	}
}

// TestOneProducerBalanceQuality runs the §3 one-processor-generator model
// and checks the Theorem 2 bound: the generator's load stays within
// roughly f·δ/(δ+1−f) of any other processor's load (we allow the f slack
// of Theorem 4 because we sample between balancing operations).
func TestOneProducerBalanceQuality(t *testing.T) {
	p := Params{F: 1.3, Delta: 2, C: 4}
	s := newTestSystem(t, 16, p, 12)
	for step := 0; step < 20000; step++ {
		s.Generate(0)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	avgOther := 0.0
	for i := 1; i < 16; i++ {
		avgOther += float64(s.Load(i))
	}
	avgOther /= 15
	bound := p.F * float64(p.Delta) / (float64(p.Delta) + 1 - p.F) // f · δ/(δ+1−f)
	ratio := float64(s.Load(0)) / avgOther
	if ratio > bound*1.5 { // generous: single run, not expectation
		t.Fatalf("generator/other load ratio %.2f far exceeds bound %.2f", ratio, bound)
	}
	// The load must actually have spread: every processor holds packets.
	for i := 0; i < 16; i++ {
		if s.Load(i) == 0 {
			t.Fatalf("processor %d has zero load after 20000 generates", i)
		}
	}
}

// TestRandomOpsInvariants is the core property test: any interleaving of
// generates and consumes on any processor preserves every structural
// invariant and never loses or creates packets.
func TestRandomOpsInvariants(t *testing.T) {
	prop := func(seed uint32, nRaw, fRaw, dRaw, cRaw uint8) bool {
		n := 3 + int(nRaw)%13 // 3..15
		delta := 1 + int(dRaw)%3
		f := 1.05 + float64(fRaw%80)/100.0 // 1.05..1.84
		if f >= float64(delta)+1 {
			f = float64(delta) + 0.9
		}
		c := 1 + int(cRaw)%8
		r := rng.New(uint64(seed))
		s, err := NewSystem(n, Params{F: f, Delta: delta, C: c}, topology.NewGlobal(n), r.Split())
		if err != nil {
			return false
		}
		for op := 0; op < 400; op++ {
			i := r.Intn(n)
			if r.Bernoulli(0.55) {
				s.Generate(i)
			} else {
				s.Consume(i)
			}
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestConsumeHeavyBorrowing drives a processor that only consumes while a
// neighbor produces, exercising the borrow/settle machinery hard.
func TestConsumeHeavyBorrowing(t *testing.T) {
	s := newTestSystem(t, 6, Params{F: 1.1, Delta: 1, C: 2}, 13)
	consumed := 0
	for step := 0; step < 3000; step++ {
		s.Generate(0)
		if s.Consume(3) {
			consumed++
		}
		if step%97 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if consumed == 0 {
		t.Fatal("processor 3 never managed to consume despite system load")
	}
	m := s.Metrics()
	if m.TotalBorrow == 0 {
		t.Fatal("borrowing never happened despite d[3][3]=0 consumption")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("metrics: %+v", m)
}

// TestBorrowCap ensures a processor never borrows while at capacity:
// settlement must happen first.
func TestBorrowCap(t *testing.T) {
	c := 3
	s := newTestSystem(t, 8, Params{F: 1.1, Delta: 1, C: c}, 14)
	for step := 0; step < 5000; step++ {
		s.Generate(step % 4) // procs 0..3 produce
		s.Consume(5)         // proc 5 only consumes
		if s.Borrowed(5) > c+2 {
			// Snake redistribution can concentrate a marker or two beyond C
			// transiently (documented), but unbounded growth is a bug.
			t.Fatalf("step %d: borrowed %d far exceeds C=%d", step, s.Borrowed(5), c)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualLoad: virtual = physical + outstanding markers.
func TestVirtualLoad(t *testing.T) {
	s := newTestSystem(t, 4, DefaultParams(), 15)
	for i := 0; i < 50; i++ {
		s.Generate(0)
	}
	for i := 0; i < 5; i++ {
		s.Consume(2)
	}
	for i := 0; i < 4; i++ {
		if s.VirtualLoad(i) != s.Load(i)+s.Borrowed(i) {
			t.Fatal("virtual load identity broken")
		}
	}
}

// TestGenerateRepaysDebt: a generate on a processor with outstanding
// markers must repay a marker, not grow its own class.
func TestGenerateRepaysDebt(t *testing.T) {
	s := newTestSystem(t, 4, DefaultParams(), 16)
	for i := 0; i < 40; i++ {
		s.Generate(0)
	}
	// Drain proc 2's own packets, then force borrows.
	for s.D(2, 2) > 0 {
		s.Consume(2)
	}
	for s.Borrowed(2) == 0 && s.Load(2) > 0 {
		s.Consume(2)
	}
	if s.Borrowed(2) == 0 {
		t.Fatal("no borrow occurred with this seed")
	}
	before := s.Borrowed(2)
	dOwn := s.D(2, 2)
	s.Generate(2)
	if s.Borrowed(2) != before-1 {
		t.Fatalf("generate did not repay debt: borrowed %d -> %d", before, s.Borrowed(2))
	}
	if s.D(2, 2) != dOwn {
		t.Fatal("generate grew own class despite outstanding debt")
	}
}

// TestInitiatorOnlyReset: in the appendix-literal variant only the
// initiator's trigger base resets at a balance, so a participant whose
// self load was redistributed keeps its old base and can re-trigger
// sooner. Verify the mechanical difference directly on n=2 where every
// balance involves both processors.
func TestInitiatorOnlyReset(t *testing.T) {
	run := func(initiatorOnly bool) int64 {
		p := Params{F: 1.1, Delta: 1, C: 4, InitiatorOnlyReset: initiatorOnly}
		s, err := NewSystem(2, p, topology.NewGlobal(2), rng.New(44))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			s.Generate(0)
			s.Generate(1)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s.Metrics().BalanceOps
	}
	both := run(false)
	initOnly := run(true)
	if both == 0 || initOnly == 0 {
		t.Fatal("no balancing happened")
	}
	// The literal variant leaves participants' bases stale, so it fires
	// at least as often as the reset-all default on this workload.
	if initOnly < both {
		t.Fatalf("initiator-only (%d ops) fired less than reset-all (%d ops)", initOnly, both)
	}
	// TriggerBase bookkeeping: after a balance, the non-initiating
	// participant's base equals its self load only in the default mode.
	s, err := NewSystem(2, Params{F: 1.1, Delta: 1, C: 4}, topology.NewGlobal(2), rng.New(45))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Generate(0)
	}
	if s.TriggerBase(1) != s.D(1, 1) {
		t.Fatalf("default mode: participant base %d != self load %d", s.TriggerBase(1), s.D(1, 1))
	}
}

// TestMetricsAccumulate checks Metrics.Add and Scale arithmetic.
func TestMetricsAccumulate(t *testing.T) {
	a := Metrics{TotalBorrow: 3, BalanceOps: 10, Migrations: 100}
	b := Metrics{TotalBorrow: 1, RemoteBorrow: 2, Generated: 7}
	a.Add(b)
	if a.TotalBorrow != 4 || a.RemoteBorrow != 2 || a.BalanceOps != 10 || a.Generated != 7 {
		t.Fatalf("Add wrong: %+v", a)
	}
	sc := a.Scale(2)
	if sc.TotalBorrow != 2 || sc.Migrations != 50 {
		t.Fatalf("Scale wrong: %+v", sc)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	a.Scale(0)
}

// TestLocalTimeAdvances: every balancing operation ticks all participants'
// local clocks.
func TestLocalTimeAdvances(t *testing.T) {
	s := newTestSystem(t, 2, DefaultParams(), 17)
	for i := 0; i < 100; i++ {
		s.Generate(0)
	}
	if s.LocalTime(0) == 0 {
		t.Fatal("initiator's local clock never ticked")
	}
	// With n=2, δ=1, processor 1 participates in every balance.
	if s.LocalTime(1) != s.LocalTime(0) {
		t.Fatalf("participant clocks diverged: %d vs %d", s.LocalTime(0), s.LocalTime(1))
	}
}

// TestBalanceEqualizesLoads: immediately after a balance with n=2 the two
// loads differ by at most 1.
func TestBalanceEqualizesLoads(t *testing.T) {
	s := newTestSystem(t, 2, Params{F: 1.1, Delta: 1, C: 4}, 18)
	for i := 0; i < 500; i++ {
		opsBefore := s.Metrics().BalanceOps
		s.Generate(0)
		if s.Metrics().BalanceOps > opsBefore {
			if d := s.Load(0) - s.Load(1); d < -1 || d > 1 {
				t.Fatalf("after balance loads differ by %d", d)
			}
		}
	}
}

// TestTable1CountersPresent: a paper-style mixed run produces all four
// Table 1 counters as non-negative and internally consistent.
func TestTable1CountersPresent(t *testing.T) {
	s := newTestSystem(t, 16, DefaultParams(), 19)
	r := rng.New(99)
	for step := 0; step < 8000; step++ {
		for i := 0; i < 16; i++ {
			if r.Bernoulli(0.5) {
				s.Generate(i)
			} else if r.Bernoulli(0.6) {
				s.Consume(i)
			}
		}
	}
	m := s.Metrics()
	if m.TotalBorrow < m.RemoteBorrow {
		t.Fatalf("remote borrows (%d) exceed total borrows (%d)", m.RemoteBorrow, m.TotalBorrow)
	}
	if m.Generated == 0 || m.Consumed == 0 || m.BalanceOps == 0 {
		t.Fatalf("degenerate run: %+v", m)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestForceBalance: the exported benchmark hook performs a real balancing
// operation regardless of the trigger, including on an empty system.
func TestForceBalance(t *testing.T) {
	s := newTestSystem(t, 8, DefaultParams(), 20)
	s.ForceBalance(3)
	if s.Metrics().BalanceOps != 1 {
		t.Fatalf("BalanceOps = %d after ForceBalance on empty system", s.Metrics().BalanceOps)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Generate(i % 8)
	}
	ops := s.Metrics().BalanceOps
	s.ForceBalance(0)
	if s.Metrics().BalanceOps != ops+1 {
		t.Fatal("ForceBalance did not perform a balancing operation")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestForceBalanceAllocationFree: a balancing operation writes its new
// rows into spare buffers and swaps them with the old ones, so buffers of
// every capacity circulate between the rows and the scratch. Once each has
// grown to its working size, an operation must allocate nothing.
func TestForceBalanceAllocationFree(t *testing.T) {
	const n = 64
	for _, delta := range []int{1, 4} {
		t.Run(fmt.Sprintf("δ=%d", delta), func(t *testing.T) {
			s := newTestSystem(t, n, Params{F: 1.1, Delta: delta, C: 4}, 23)
			for i := 0; i < n*8; i++ {
				s.Generate(i % n)
			}
			i := 0
			op := func() {
				s.ForceBalance(i % n)
				i++
			}
			for i < 200*n {
				op()
			}
			if allocs := testing.AllocsPerRun(10*n, op); allocs != 0 {
				t.Fatalf("%v allocations per warmed balancing operation, want 0", allocs)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRowHeaderIsOneCacheLine pins the row layout the step phase and the
// warm-up before a wave's operations rely on: a processor's header — its
// self entry, trigger base, totals and tail slice — is one cache line, and
// at the sharded benchmark's size the array of them starts on a line, so
// no header straddles two. A field that spills the header onto a second
// line fails here.
func TestRowHeaderIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(sparseRow{}); size != CacheLine {
		t.Fatalf("sparseRow is %d bytes, want one %d-byte cache line", size, CacheLine)
	}
	s := newTestSystem(t, 65536, DefaultParams(), 1)
	if at := uintptr(unsafe.Pointer(&s.rows[0])); at%CacheLine != 0 {
		t.Fatalf("rows[0] at %#x is not %d-byte aligned", at, CacheLine)
	}
}

// TestActiveSetCompaction: an empty system has no active classes, load
// spreads grow the active sets, and a full drain compacts them back to
// exactly the outstanding borrow markers.
func TestActiveSetCompaction(t *testing.T) {
	const n = 12
	s := newTestSystem(t, n, Params{F: 1.2, Delta: 2, C: 3}, 21)
	if s.NNZ() != 0 {
		t.Fatalf("empty system has NNZ = %d", s.NNZ())
	}
	for i := 0; i < 2000; i++ {
		s.Generate(i % n)
	}
	if s.NNZ() == 0 {
		t.Fatal("no active classes after 2000 generates")
	}
	for i := 0; i < n; i++ {
		if s.ActiveClasses(i) == 0 {
			t.Fatalf("processor %d holds load %d but no active classes", i, s.Load(i))
		}
		if s.ActiveClasses(i) > n {
			t.Fatalf("processor %d claims %d active classes, only %d exist", i, s.ActiveClasses(i), n)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A single Consume may fail transiently while load remains, so bound
	// the drain by rounds rather than per-sweep success.
	for round := 0; s.TotalLoad() > 0; round++ {
		if round > 16*2000 {
			t.Fatalf("drain stalled with %d packets", s.TotalLoad())
		}
		for i := 0; i < n; i++ {
			s.Consume(i)
		}
	}
	// Only borrow-marker cells may survive the drain.
	markers := 0
	for i := 0; i < n; i++ {
		markers += s.Borrowed(i)
	}
	if s.NNZ() > markers {
		t.Fatalf("NNZ %d exceeds outstanding markers %d after full drain", s.NNZ(), markers)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate(b *testing.B) {
	s, err := NewSystem(64, DefaultParams(), topology.NewGlobal(64), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Generate(i % 64)
	}
}

func BenchmarkGenerateConsumeMixed(b *testing.B) {
	s, err := NewSystem(64, DefaultParams(), topology.NewGlobal(64), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % 64
		if r.Bernoulli(0.55) {
			s.Generate(p)
		} else {
			s.Consume(p)
		}
	}
}

func BenchmarkBalanceOp(b *testing.B) {
	// Measure the redistribution cost directly: n=256, δ=4.
	s, err := NewSystem(256, Params{F: 1.1, Delta: 4, C: 4}, topology.NewGlobal(256), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256*20; i++ {
		s.Generate(i % 256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.balance(i%256, s.rng, s.sc, &s.metrics)
	}
}

// TestCheckInvariantsRejectsNonCanonicalRows: each way a row's tail can
// break its canonical form — a (1, 0) cell in the other list, an id equal
// to the self class, a class in both lists, an unsorted id list — is
// reported, on a row whose sums still agree with l and bTot.
func TestCheckInvariantsRejectsNonCanonicalRows(t *testing.T) {
	cases := []struct {
		name string
		ids  int32
		tail []int32
		l, b int
		want string
	}{
		{"(1, 0) cell in the other list", 1, []int32{2, 5, 1, 0}, 2, 0, "outside the id list"},
		{"id equal to the self class", 2, []int32{2, 3}, 2, 0, "self class"},
		{"class in both lists", 2, []int32{2, 5, 5, 0, 1}, 2, 1, "both lists"},
		{"unsorted ids", 3, []int32{5, 2, 6}, 3, 0, "not sorted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSystem(t, 8, DefaultParams(), 1)
			row := &s.rows[3]
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("the empty system already fails: %v", err)
			}
			if tc.want == "self class" {
				row = &s.rows[2]
			}
			row.ids, row.tail, row.l, row.bTot = tc.ids, tc.tail, tc.l, tc.b
			s.metrics.Generated = int64(tc.l)
			err := s.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants() = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
