package core

import (
	"fmt"
	"math"

	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
)

// System is the state of n processors running the Lüling–Monien load
// balancing algorithm. It is driven step-by-step by a simulator calling
// Generate and Consume; all balancing activity happens inside those calls,
// exactly as in the appendix algorithm. A System is not safe for concurrent
// use through the sequential API; the sharded simulation engine drives
// disjoint processor ranges concurrently through Lane views, which run the
// same step rules (generateRow, consumeRow), and resolves cross-range
// balancing operations through the batched entry points in batch.go. The
// message-passing realization is internal/proto (the handshake state
// machine), driven by internal/netsim on a virtual clock and by
// internal/cluster over real transports.
//
// Per-class state is stored sparsely: processor i keeps a compact row of
// the classes it actually holds (see sparse.go) instead of dense length-n
// d/b vectors. Memory is O(total nonzero + n) rather than O(n²), and a
// balancing operation touches only the union of classes its δ+1
// participants hold rather than scanning all n classes. The sparse system
// consumes the RNG stream exactly like the dense formulation, so results
// are bit-identical to the original dense implementation (enforced by
// TestSparseMatchesDenseReference).
//
// Every randomized internal operation threads an explicit (rng, scratch,
// metrics) triple instead of touching System-level fields: the sequential
// API passes the System's own triple, while the sharded engine draws each
// deferred operation from a deterministic per-operation RNG stream and
// executes it on per-worker scratch and metrics, so operations over
// disjoint participant sets can run on any worker with identical results.
type System struct {
	n      int
	params Params
	sel    topology.Selector
	rng    *rng.RNG

	rows []sparseRow // rows[i]: processor i's state, one cache line each

	metrics Metrics

	// sc is the scratch for the sequential API; concurrent deferred-op
	// workers allocate their own with NewScratch.
	sc *Scratch
}

// Scratch holds the reusable buffers one balancing operation needs. The
// sequential API uses the System's embedded Scratch; the sharded engine
// gives every resolution worker its own so operations over disjoint
// participant sets can execute concurrently without sharing any mutable
// state beyond the participants themselves.
type Scratch struct {
	candBuf []int
	setBuf  []int
	lanes   []mergeLane // the balance kernel's per-participant state

	// Workers' Scratches are allocated back to back and written on every
	// operation; the padding keeps two of them off one cache line.
	_ [CacheLine]byte
}

// CacheLine is the padding that ends every struct whose instances sit
// side by side in memory and are written by different goroutines: a
// worker's Scratch (see newScratch), a shard's Lane, and the sharded
// engine's per-worker and per-shard state. It is also the size of a
// processor's row header (sparseRow).
const CacheLine = 64

// mergeLane is one participant's state in the balance kernel
// (redistribute): where the merge stands in its old row's two lists and
// self entry, and the new row being written.
type mergeLane struct {
	head    int32        // smallest unmerged class of the old row
	pin     int32        // smallest unmerged class outside the id list: the self entry or the other list's head
	self    int32        // the self class while the old self entry is unmerged
	ic, oc  int          // next unmerged indices into the old id and other lists
	row     *sparseRow   // the participant's row; its tail is the old tail
	ids     []int32      // the old id list
	others  []classEntry // the old other list
	own     classEntry   // the new self entry
	out     []int32      // the new tail: a spare buffer, swapped with the old tail at the end
	outOth  []classEntry // the new other list, appended to out's id list at the end
	newL    int
	newBTot int
}

// next caches the lane's merge fronts: the smaller of the pending self
// entry and the other list's head in pin, and the smaller of pin and the
// id list's head in head.
func (ln *mergeLane) next() {
	ln.pin = ln.self
	if ln.oc < len(ln.others) && ln.others[ln.oc].cls < ln.pin {
		ln.pin = ln.others[ln.oc].cls
	}
	ln.head = ln.pin
	if ln.ic < len(ln.ids) && ln.ids[ln.ic] < ln.head {
		ln.head = ln.ids[ln.ic]
	}
}

// newScratch builds a Scratch for balancing sets of at most m participants.
// The buffers the kernel writes per class end in at least a cache line of
// slack (an unused lane, eight unused ints), so that concurrently working
// Scratches never write to a shared line wherever the allocator puts them.
func newScratch(m int) *Scratch {
	ints := make([]int, 2*m+CacheLine/8)
	return &Scratch{
		candBuf: ints[0:0:m],
		setBuf:  ints[m : m : 2*m],
		lanes:   make([]mergeLane, m+1)[:m],
	}
}

// NewScratch returns a fresh Scratch sized for this system, for callers
// that resolve deferred balancing operations concurrently (one Scratch per
// worker; a Scratch must not be shared between concurrently executing
// operations).
func (s *System) NewScratch() *Scratch {
	return newScratch(s.params.Delta + 2)
}

// NewSystem creates a balanced-empty system of n processors. The selector
// must be built for the same n. The RNG drives candidate selection and all
// random choices of the algorithm.
func NewSystem(n int, p Params, sel topology.Selector, r *rng.RNG) (*System, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: need n >= 2 processors, got %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: n = %d exceeds the %d classes a packed row entry can name", n, math.MaxInt32)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sel == nil || r == nil {
		return nil, fmt.Errorf("core: selector and rng must be non-nil")
	}
	if sel.N() != n {
		return nil, fmt.Errorf("core: selector built for %d processors, system has %d", sel.N(), n)
	}
	m := p.Delta + 2 // balancing set is at most δ+1, class recovery adds one
	// Every tail starts nil and grows on its first foreign class. An array
	// this large comes from the heap's page-aligned large-object spans, so
	// each header is one cache line (TestRowHeaderIsOneCacheLine).
	rows := make([]sparseRow, n)
	for i := range rows {
		rows[i].own.cls = int32(i)
	}
	return &System{
		n:      n,
		params: p,
		sel:    sel,
		rng:    r,
		rows:   rows,
		sc:     newScratch(m),
	}, nil
}

// Name identifies the algorithm in experiment output.
func (s *System) Name() string {
	return fmt.Sprintf("LM(f=%g,δ=%d,C=%d,%s)", s.params.F, s.params.Delta, s.params.C, s.sel.Name())
}

// N returns the number of processors.
func (s *System) N() int { return s.n }

// Params returns the algorithm parameters.
func (s *System) Params() Params { return s.params }

// Load returns the physical load of processor i.
func (s *System) Load(i int) int { return s.rows[i].l }

// Loads appends the physical loads of all processors to dst and returns it.
func (s *System) Loads(dst []int) []int {
	dst = dst[:0]
	for i := range s.rows {
		dst = append(dst, s.rows[i].l)
	}
	return dst
}

// TotalLoad returns the number of packets in the system.
func (s *System) TotalLoad() int {
	sum := 0
	for i := range s.rows {
		sum += s.rows[i].l
	}
	return sum
}

// LocalTime returns the number of balancing operations processor i has
// participated in — the paper's local clock t'.
func (s *System) LocalTime(i int) int { return int(s.rows[i].localT) }

// TriggerBase returns l_old for processor i: its self-generated load at its
// last balancing operation, against which the factor-f trigger compares.
func (s *System) TriggerBase(i int) int { return int(s.rows[i].lOld) }

// Metrics returns a snapshot of the activity counters.
func (s *System) Metrics() Metrics { return s.metrics }

// AbsorbMetrics folds externally accumulated counters (per-lane or
// per-worker partial Metrics from a sharded run) into the system's own, so
// Metrics and CheckInvariants see the complete totals.
func (s *System) AbsorbMetrics(m Metrics) { s.metrics.Add(m) }

// D returns d[i][j] (real packets of class j on i); for tests and
// experiment introspection.
func (s *System) D(i, j int) int { return s.rows[i].getD(j) }

// B returns b[i][j] (borrow markers of class j on i).
func (s *System) B(i, j int) int { return s.rows[i].getB(j) }

// Borrowed returns the number of outstanding borrow markers of processor i.
func (s *System) Borrowed(i int) int { return s.rows[i].bTot }

// ActiveClasses returns the number of classes processor i currently holds
// (d or b nonzero) — the per-row cost driver of a balancing operation.
func (s *System) ActiveClasses(i int) int { return s.rows[i].active() }

// NNZ returns the total number of nonzero per-class cells across all
// processors — the memory footprint driver of the sparse representation.
func (s *System) NNZ() int {
	total := 0
	for i := range s.rows {
		total += s.rows[i].active()
	}
	return total
}

// ForceBalance initiates a balancing operation on processor i regardless of
// the factor-f trigger. It exists for benchmarks and experiment harnesses;
// the algorithm itself only balances through the trigger.
func (s *System) ForceBalance(i int) { s.balance(i, s.rng, s.sc, &s.metrics) }

// Generate adds one self-generated packet to processor i. If i holds
// borrow markers, the new packet repays a debt instead (appendix: the
// marker's class receives the packet), leaving virtual loads unchanged.
// May trigger a balancing operation.
func (s *System) Generate(i int) { s.generate(i, s.rng, s.sc, &s.metrics) }

func (s *System) generate(i int, r *rng.RNG, sc *Scratch, m *Metrics) {
	if generateRow(&s.rows[i], &s.params, r, m) {
		s.balance(i, r, sc, m)
	}
}

// Consume removes one packet from processor i, borrowing from a foreign
// class if i has no self-generated packets left. It returns false if i has
// no load at all. May trigger balancing operations (on i, or on a class
// owner during borrow settlement).
func (s *System) Consume(i int) bool { return s.consume(i, s.rng, s.sc, &s.metrics) }

func (s *System) consume(i int, r *rng.RNG, sc *Scratch, m *Metrics) bool {
	row := &s.rows[i]
	// Each settlement clears at least one marker, so the loop terminates
	// within C+2 rounds.
	for attempt := 0; attempt <= s.params.C+2; attempt++ {
		consumed, trigger, needSettle := consumeRow(row, &s.params, r, m)
		if !needSettle {
			if trigger {
				s.balance(i, r, sc, m)
			}
			return consumed
		}
		// No borrow slot or no borrowable class: settle a random
		// outstanding marker first. The settlement's rebalancing may give
		// i self packets back, or migrate all of its load away; the next
		// round sees either.
		j := randClass(row, false, r)
		if j < 0 {
			// No markers and no borrowable class would mean l == 0;
			// unreachable, but fail safe rather than loop.
			break
		}
		s.settle(i, j, r, sc, m)
	}
	m.ConsumeNoLoad++
	return false
}

// The appendix's processor-step rules, one row at a time. The sequential
// path (generate, consume) and the sharded engine's Lane both call them:
// they touch nothing but the row, the generator and the counters, and
// instead of acting on a trigger or a settlement they report it, so the
// caller decides whether to balance at once or defer to a barrier.

// generateRow adds one self-generated packet to row: if the row holds
// borrow markers, the packet repays a random one (the marker's class
// receives it), else it joins the self class. It reports whether the
// factor-f trigger condition now holds.
func generateRow(row *sparseRow, p *Params, r *rng.RNG, m *Metrics) (trigger bool) {
	if row.bTot > 0 {
		j := randClass(row, false, r)
		row.add(j, +1, -1)
		row.bTot--
	} else {
		row.own.d++
	}
	row.l++
	m.Generated++
	return trigFired(row, p.F)
}

// consumeRow removes one packet from row if it can do so locally:
// consuming a self packet, or borrowing from a random borrowable class
// while the row holds fewer than C markers. trigger reports the factor-f
// condition after a self-packet consume. When a marker must be settled
// first (no borrow slot left, or no borrowable class), it mutates nothing,
// draws nothing and reports needSettle. A row with no load counts a
// ConsumeNoLoad and reports nothing.
func consumeRow(row *sparseRow, p *Params, r *rng.RNG, m *Metrics) (consumed, trigger, needSettle bool) {
	if row.l == 0 {
		m.ConsumeNoLoad++
		return false, false, false
	}
	if row.own.d > 0 {
		row.own.d--
		row.l--
		m.Consumed++
		return true, trigFired(row, p.F), false
	}
	if row.bTot < p.C {
		if j := randClass(row, true, r); j >= 0 {
			row.add(j, -1, +1)
			row.bTot++
			row.l--
			m.TotalBorrow++
			m.Consumed++
			return true, false, false
		}
	}
	return false, false, true
}

// randClass picks a uniformly random class among the row's classes that
// qualify, as a reservoir over them in ascending order: with borrow, the
// classes a consume may borrow from (d > 0 and b == 0); without, the
// classes holding a borrow marker (b > 0). The k-th qualifying class costs
// one Intn(k) call and nothing is collected or sorted. Ascending order
// keeps the RNG consumption identical to a dense 0..n-1 scan (zero cells
// never qualify). It returns -1 if no class qualifies. The sequential
// path and the per-shard Lane path share it: it touches nothing but the
// row and the generator.
//
// A marker draw walks only the other list, with the self entry slotted in
// at its place: no id holds a marker. A borrow draw qualifies every id, so
// it counts the k qualifying classes without walking the ids, makes the
// same Intn(1)…Intn(k) calls the walk would, and then finds the winning
// position's class: the qualifying other entries and the self entry are
// placed among the ids by binary search.
func randClass(row *sparseRow, borrow bool, r *rng.RNG) int {
	self := row.own.cls
	selfPending := qualifies(row.own, borrow)
	others := row.others()
	if !borrow {
		pick, seen := -1, 0
		for _, e := range others {
			if selfPending && e.cls > self {
				selfPending = false
				if seen++; r.Intn(seen) == 0 {
					pick = int(self)
				}
			}
			if e.b > 0 {
				if seen++; r.Intn(seen) == 0 {
					pick = int(e.cls)
				}
			}
		}
		if selfPending {
			if seen++; r.Intn(seen) == 0 {
				pick = int(self)
			}
		}
		return pick
	}
	k := int(row.ids)
	for _, e := range others {
		if qualifies(e, true) {
			k++
		}
	}
	if selfPending {
		k++
	}
	win := -1 // the winning position among the qualifying classes, ascending
	for i := 1; i <= k; i++ {
		if r.Intn(i) == 0 {
			win = i - 1
		}
	}
	if win < 0 {
		return -1
	}
	// Walk the qualifying classes outside the id list in ascending order;
	// the j-th of them, class c, is at position (ids below c) + j.
	ids := row.idList()
	j, oc := 0, 0
	for {
		c := int32(math.MaxInt32)
		if selfPending {
			c = self
		}
		for oc < len(others) && !qualifies(others[oc], true) {
			oc++
		}
		switch {
		case oc < len(others) && others[oc].cls < c:
			c = others[oc].cls
			oc++
		case selfPending:
			selfPending = false
		default:
			return int(ids[win-j])
		}
		if at := searchIDs(ids, c) + j; at >= win {
			if at == win {
				return int(c)
			}
			return int(ids[win-j])
		}
		j++
	}
}

// qualifies is randClass's predicate: a borrowable class (d > 0, b == 0)
// with borrow, a class holding a marker (b > 0) without.
func qualifies(e classEntry, borrow bool) bool {
	if borrow {
		return e.d > 0 && e.b == 0
	}
	return e.b > 0
}

// trigFired reports the factor-f condition on a row's self-load own.d
// against its trigger base lOld. The strict-change guard (d != old) keeps
// the old == 0 case from firing continuously (see doc.go).
func trigFired(row *sparseRow, f float64) bool {
	d, old := row.own.d, row.lOld
	if d > old && float64(d) >= f*float64(old) {
		return true
	}
	return d < old && float64(d)*f <= float64(old)
}

// TriggerPending reports whether processor i's factor-f trigger condition
// currently holds — the condition under which the sequential path fires a
// balancing operation. The sharded engine uses it to re-verify a deferred
// initiation at the tick barrier: an earlier operation in the same barrier
// may have included i as a partner and reset its trigger base.
func (s *System) TriggerPending(i int) bool {
	return trigFired(&s.rows[i], s.params.F)
}

// maybeBalance fires a balancing operation if processor i's self-generated
// load has changed by at least the factor f since its last balancing
// operation.
func (s *System) maybeBalance(i int, r *rng.RNG, sc *Scratch, m *Metrics) {
	if trigFired(&s.rows[i], s.params.F) {
		s.balance(i, r, sc, m)
	}
}

// balance performs a full balancing operation initiated by processor init:
// δ random partners are selected and all class vectors of the δ+1
// participants are snake-redistributed. Every participant's local clock
// ticks, lOld resets, and own-class borrow markers are cleared (simulated
// decrease).
func (s *System) balance(init int, r *rng.RNG, sc *Scratch, m *Metrics) {
	var start int
	sc.candBuf, start = s.DrawOperation(init, r, sc.candBuf)
	s.balanceSet(init, sc.candBuf, start, sc, m)
}

// balanceSet is balance with the operation's random draws already made
// (DrawOperation): the δ partners and the snake's start position.
func (s *System) balanceSet(init int, partners []int, start int, sc *Scratch, m *Metrics) {
	sc.setBuf = append(sc.setBuf[:0], init)
	sc.setBuf = append(sc.setBuf, partners...)
	set := sc.setBuf
	m.BalanceOps++
	s.redistribute(set, start, sc, m)
	for _, p := range set {
		row := &s.rows[p]
		if !s.params.InitiatorOnlyReset || p == init {
			row.lOld = row.own.d
		}
		row.localT++
		if own := row.own.b; own > 0 {
			// The owner consumes its own phantoms: simulated decrease.
			row.bTot -= int(own)
			row.own.b = 0
			m.DecreaseSim++
		}
	}
}

// redistribute is the balance kernel: it snake-distributes the d classes
// followed by the b classes of the participant set, maintaining l and bTot
// and counting migrations — in one fused pass over the participants' rows.
// start, in [0, len(set)), is the operation's one random draw: the
// position the snake hands out its first extra at.
//
// The rows are merged like sorted lists: every participant contributes
// its id list, its other list and its header's self entry, slotted in by
// value, and the smallest unmerged class of each is cached in its lane. A
// round looks at the two smallest heads.
//
// If they tie, the class is shared: its d and b are summed over the
// participants that hold it (all the snake needs of a class is its total),
// both totals are split — total/np to everyone, the total mod np extras at
// consecutive circular positions from a running offset — and every nonzero
// share is appended to that participant's new row: a (1, 0) share to its
// id list, any other to its other list.
//
// If they do not, the lane with the smallest head alone holds every class
// below the second-smallest head, and the kernel walks that run without
// looking at the other lanes again. Nearly every class of a run is an id,
// a foreign class with one packet and no marker, whose whole outcome is
// known without arithmetic: the total 1 has no base share and one extra,
// so the id moves as it is to the id list of the participant at the d
// offset, and the offset steps on. The run's other classes — its other
// entries and the self entry where it slots in, the lane's pin — go
// through the same split as a shared class, one per round.
//
// At δ = 1 (two participants) the runs are mostly one class long: dealing
// classes out alternately leaves the rows evenly spaced in class order, so
// they interleave, and a round per class would cost a lane scan and a
// mispredicted run end nearly per class. So a δ = 1 round starts by taking
// the two id lists' heads in order, the smaller by a compare, for as long
// as the one taken is below both lanes' pins and the other head is a
// different class: exactly the classes the rounds would have dealt one per
// run, in the same order.
//
// Classes no participant holds are never visited: their totals are zero,
// for which the dense formulation advances no offset either. The new self
// entries are written in the lanes and the new tails into spare buffers
// that swap places with the old tails, so the steady state allocates
// nothing.
//
// The dense formulation runs the snake over all d classes and then, with
// the same cursor, over all b classes. Fusing the two passes needs the b
// cursor's starting position up front, and it is known: every d class
// advances the cursor by its total mod np, so after all of them it stands
// at (start + Σ_class total) mod np, and Σ_class total is the participants'
// combined load Σ_k l[k] — no pre-pass. One start draw, ascending class
// order and the same ±1 arithmetic make the result identical to the dense
// reference (dense_ref_test.go), cell for cell.
func (s *System) redistribute(set []int, start int, sc *Scratch, m *Metrics) {
	const done = math.MaxInt32 // above every class: n <= MaxInt32
	np := len(set)
	lanes := sc.lanes[:np]
	sumL := 0
	for k, p := range set {
		ln := &lanes[k]
		row := &s.rows[p]
		ln.row, ln.ids, ln.others = row, row.idList(), row.others()
		ln.ic, ln.oc = 0, 0
		ln.self = done
		if row.own.d != 0 || row.own.b != 0 {
			ln.self = row.own.cls
		}
		ln.next()
		ln.own = classEntry{cls: row.own.cls}
		ln.out, ln.outOth = ln.out[:0], ln.outOth[:0]
		ln.newL, ln.newBTot = 0, 0
		sumL += row.l
	}
	offD := start
	offB := (offD + sumL) % np
	for {
		if np == 2 {
			// δ = 1: deal the two id lists' interleaved classes, the
			// smaller head first, until a head needs a round.
			a, b := &lanes[0], &lanes[1]
			bound := min(a.pin, b.pin)
			idsA, idsB, ia, ib := a.ids, b.ids, a.ic, b.ic
			for ia < len(idsA) && ib < len(idsB) {
				ca, cb := idsA[ia], idsB[ib]
				c, t := ca, 0 // the class taken, and which list it is from
				if cb < ca {
					c, t = cb, 1
				}
				if c >= bound || ca == cb {
					break
				}
				to := &lanes[offD]
				to.newL++
				if c == to.own.cls {
					to.own.d = 1
				} else {
					to.out = append(to.out, c)
				}
				offD ^= 1
				ia += 1 - t
				ib += t
			}
			a.ic, b.ic = ia, ib
			a.next()
			b.next()
		}
		// The smallest head, the lane it is in, and the second smallest.
		cls, lim, lone := int32(done), int32(done), 0
		for k := range lanes {
			if h := lanes[k].head; h < cls {
				cls, lim, lone = h, cls, k
			} else if h < lim {
				lim = h
			}
		}
		if cls == done {
			break
		}
		totD, totB := 0, 0
		if lim == cls {
			for k := range lanes {
				ln := &lanes[k]
				if ln.head != cls {
					continue
				}
				switch {
				case ln.ic < len(ln.ids) && ln.ids[ln.ic] == cls:
					totD++
					ln.ic++
				case ln.self == cls:
					totD += int(ln.row.own.d)
					totB += int(ln.row.own.b)
					ln.self = done
				default:
					e := &ln.others[ln.oc]
					totD += int(e.d)
					totB += int(e.b)
					ln.oc++
				}
				ln.next()
			}
		} else {
			ln := &lanes[lone]
			// The run's ids, up to the lane's pin if that comes before the
			// run's end.
			pin := ln.pin
			bound := min(lim, pin)
			ids, ic := ln.ids, ln.ic
			for ic < len(ids) && ids[ic] < bound {
				c := ids[ic]
				to := &lanes[offD]
				to.newL++
				if c == to.own.cls {
					to.own.d = 1
				} else {
					to.out = append(to.out, c)
				}
				if offD++; offD == np {
					offD = 0
				}
				ic++
			}
			ln.ic = ic
			if pin >= lim {
				// The run ended before the pin.
				ln.next()
				continue
			}
			// The pin comes next: the self entry or the other list's head.
			e := &ln.row.own
			if ln.self == pin {
				ln.self = done
			} else {
				e = &ln.others[ln.oc]
				ln.oc++
			}
			ln.next()
			cls, totD, totB = e.cls, int(e.d), int(e.b)
		}
		baseD, remD := 0, totD
		if totD >= np {
			baseD, remD = totD/np, totD%np
		}
		baseB, remB := 0, totB
		if totB >= np {
			baseB, remB = totB/np, totB%np
		}
		for k := range lanes {
			d, b := baseD, baseB
			if snakeExtra(k, offD, remD, np) {
				d++
			}
			if snakeExtra(k, offB, remB, np) {
				b++
			}
			if d == 0 && b == 0 {
				continue
			}
			ln := &lanes[k]
			ln.newL += d
			ln.newBTot += b
			switch {
			case ln.own.cls == cls:
				ln.own.d, ln.own.b = int32(d), int32(b)
			case d == 1 && b == 0:
				ln.out = append(ln.out, cls)
			default:
				ln.outOth = append(ln.outOth, classEntry{cls: cls, d: int32(d), b: int32(b)})
			}
		}
		if offD += remD; offD >= np {
			offD -= np
		}
		if offB += remB; offB >= np {
			offB -= np
		}
	}
	for k := range lanes {
		ln := &lanes[k]
		row := ln.row
		ids := int32(len(ln.out))
		for _, e := range ln.outOth {
			ln.out = append(ln.out, e.cls, e.d, e.b)
		}
		row.own, row.ids, row.tail, ln.out = ln.own, ids, ln.out, row.tail
		if recv := ln.newL - row.l; recv > 0 {
			m.Migrations += int64(recv)
		}
		row.l = ln.newL
		row.bTot = ln.newBTot
	}
}

// CheckInvariants verifies the structural invariants documented in doc.go —
// non-negative counts, l[i] == Σ_j d[i][j], bTot[i] == Σ_j b[i][j], exact
// packet conservation (TotalLoad == Generated − Consumed) — plus the
// sparse bookkeeping: every row's self entry names the row's own class,
// its local clock has not wrapped, and its tail is canonical: the id list
// and the other list are each sorted ascending and free of the self class,
// no class is in both, the other list holds whole triples and no (1, 0) or
// empty entry. It is O(total nonzero + n) and intended for tests.
func (s *System) CheckInvariants() error {
	var totalLoad int64
	for i := 0; i < s.n; i++ {
		row := &s.rows[i]
		if int(row.own.cls) != i {
			return fmt.Errorf("core: row %d: self entry names class %d", i, row.own.cls)
		}
		if row.localT < 0 {
			return fmt.Errorf("core: row %d: local clock %d < 0", i, row.localT)
		}
		if row.ids < 0 || int(row.ids) > len(row.tail) || (len(row.tail)-int(row.ids))%3 != 0 {
			return fmt.Errorf("core: row %d: a tail of %d words does not split into %d ids and whole triples", i, len(row.tail), row.ids)
		}
		if row.own.d < 0 || row.own.b < 0 {
			return fmt.Errorf("core: row %d: self cell (%d, %d) is negative", i, row.own.d, row.own.b)
		}
		// The cells are int32; the sums stay int so that a wrapped cell
		// cannot wrap the sum back into agreement with l and bTot.
		sumD, sumB := int(row.own.d), int(row.own.b)
		ids := row.idList()
		for k, c := range ids {
			if c < 0 || int(c) >= s.n {
				return fmt.Errorf("core: row %d: class %d out of range", i, c)
			}
			if int(c) == i {
				return fmt.Errorf("core: row %d: the id list holds the self class", i)
			}
			if k > 0 && c <= ids[k-1] {
				return fmt.Errorf("core: row %d: id list not sorted at index %d (%d after %d)", i, k, c, ids[k-1])
			}
			sumD++
		}
		others := row.others()
		for k, e := range others {
			if e.cls < 0 || int(e.cls) >= s.n {
				return fmt.Errorf("core: row %d: class %d out of range", i, e.cls)
			}
			if int(e.cls) == i {
				return fmt.Errorf("core: row %d: the other list holds the self class", i)
			}
			if e.d < 0 || e.b < 0 {
				return fmt.Errorf("core: row %d: cell (%d, %d) of class %d is negative", i, e.d, e.b, e.cls)
			}
			if e.d == 0 && e.b == 0 {
				return fmt.Errorf("core: row %d: empty entry for class %d not compacted", i, e.cls)
			}
			if e.d == 1 && e.b == 0 {
				return fmt.Errorf("core: row %d: one-packet class %d outside the id list", i, e.cls)
			}
			if k > 0 && e.cls <= others[k-1].cls {
				return fmt.Errorf("core: row %d: other list not sorted at index %d (%d after %d)", i, k, e.cls, others[k-1].cls)
			}
			if at := searchIDs(ids, e.cls); at < len(ids) && ids[at] == e.cls {
				return fmt.Errorf("core: row %d: class %d is in both lists", i, e.cls)
			}
			sumD += int(e.d)
			sumB += int(e.b)
		}
		if row.l != sumD {
			return fmt.Errorf("core: l[%d] = %d but Σd = %d", i, row.l, sumD)
		}
		if row.bTot != sumB {
			return fmt.Errorf("core: bTot[%d] = %d but Σb = %d", i, row.bTot, sumB)
		}
		totalLoad += int64(row.l)
	}
	if want := s.metrics.Generated - s.metrics.Consumed; totalLoad != want {
		return fmt.Errorf("core: total load %d but generated−consumed = %d", totalLoad, want)
	}
	return nil
}

// settle resolves one outstanding borrow marker b[i][j] (see doc.go for
// the three cases).
func (s *System) settle(i, j int, r *rng.RNG, sc *Scratch, m *Metrics) {
	if j == i {
		// The owner clears its own phantoms: simulated decrease.
		row := &s.rows[i]
		row.bTot -= int(row.own.b)
		row.own.b = 0
		m.DecreaseSim++
		return
	}
	if s.rows[j].own.d > 0 {
		s.exchange(i, j, r, sc, m)
		return
	}
	// Borrow fail: the class owner has no real self packets. Run the §4
	// recovery — a class-j-only balancing over j, δ random candidates and
	// i — then settle if it produced packets at j.
	m.BorrowFail++
	s.classBalance(j, i, r, sc, m)
	if s.rows[i].getB(j) == 0 {
		// The marker migrated away (another participant now carries the
		// debt); i is free to borrow again.
		return
	}
	if s.rows[j].own.d > 0 {
		s.exchange(i, j, r, sc, m)
		return
	}
	// Class j has no real packets among the participants: force-clear the
	// marker with a simulated decrease accounted to class j. Unreachable
	// under the paper's assumptions; kept for progress under adversarial
	// schedules.
	s.rows[i].add(j, 0, -1)
	s.rows[i].bTot--
	m.ForcedSettle++
	m.DecreaseSim++
}

// exchange performs the paper's remote-borrow settlement: processor j
// migrates one real class-j packet to i, i clears its class-j marker, and
// j treats the loss as a simulated workload decrease (which may trigger a
// balancing operation on j).
func (s *System) exchange(i, j int, r *rng.RNG, sc *Scratch, m *Metrics) {
	from, to := &s.rows[j], &s.rows[i]
	from.own.d--
	from.l--
	to.add(j, +1, -1)
	to.l++
	to.bTot--
	m.RemoteBorrow++
	m.DecreaseSim++
	s.maybeBalance(j, r, sc, m)
}

// classBalance redistributes only class cls over the owner, δ random
// candidates of the owner, and the extra processor (the borrower), leaving
// every other class untouched. Markers of class cls arriving at the owner
// are consumed (the paper: "at least one processor migrates its borrowed
// packet to j where it is also consumed").
func (s *System) classBalance(owner, extra int, r *rng.RNG, sc *Scratch, m *Metrics) {
	cls := owner // the class being balanced is the owner's own class
	m.ClassBalanceOps++
	sc.candBuf = s.sel.Select(owner, s.params.Delta, r, sc.candBuf)
	sc.setBuf = append(sc.setBuf[:0], owner)
	for _, c := range sc.candBuf {
		if c != extra {
			sc.setBuf = append(sc.setBuf, c)
		}
	}
	if extra != owner {
		sc.setBuf = append(sc.setBuf, extra)
	}
	set := sc.setBuf
	np := len(set)

	totalD, totalB := 0, 0
	for _, p := range set {
		totalD += s.rows[p].getD(cls)
		totalB += s.rows[p].getB(cls)
	}
	cur := newSnakeCursor(np, r.Intn(np))
	cur.distribute(totalD, func(k, cnt int) {
		row := &s.rows[set[k]]
		delta := cnt - row.getD(cls)
		row.setD(cls, cnt)
		row.l += delta
		if delta > 0 {
			m.Migrations += int64(delta)
		}
	})
	cur.distribute(totalB, func(k, cnt int) {
		row := &s.rows[set[k]]
		delta := cnt - row.getB(cls)
		row.setB(cls, cnt)
		row.bTot += delta
	})
	// Markers of the class that landed on the owner are consumed there.
	if row := &s.rows[owner]; row.own.b > 0 {
		row.bTot -= int(row.own.b)
		row.own.b = 0
		m.DecreaseSim++
	}
}
