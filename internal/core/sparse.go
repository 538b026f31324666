package core

// classEntry is one nonzero cell of a processor's per-class state: d real
// packets and b borrow markers of class cls. It is packed to 12 bytes —
// a balancing operation is bound on row-entry cache misses, so the entry
// size is the kernel's memory traffic and most of the simulator's
// resident set. NewSystem rejects n > MaxInt32; a cell never exceeds the
// load of its processor (see doc.go for the per-cell bound).
type classEntry struct {
	cls int32
	d   int32
	b   int32
}

// sparseRow is one processor's whole state, laid out as one cache line:
// its own class's entry, held inline (even when zero) so the factor-f
// trigger reads d[i][i] without a search; its trigger base and the
// per-processor totals; and the sorted tail of the foreign classes it
// holds. A processor step, a trigger re-check and a balancing operation's
// bookkeeping read and write this one line and nothing else; only a
// borrow, a repayment or the balance kernel walks the tail.
// TestRowHeaderIsOneCacheLine pins the size.
//
// Invariant: tail is sorted ascending by class and holds neither an empty
// entry nor the self class (removal shifts, insertion binary-searches, and
// a balancing operation emits its merged classes in ascending order).
// Keeping the tail sorted is what lets every RNG-consuming iteration visit
// classes in ascending order — identical to a dense 0..n-1 scan, the
// property the dense differential test pins down — without sorting per
// operation, and what lets a balancing operation be one linear merge of
// its participants' rows (System.redistribute). Lookups binary-search the
// tail; no per-row map is worth its constant factor (measured slower on
// every benchmark workload).
//
// A balancing operation replaces the tail wholesale: it writes the new
// tail into a spare buffer from its Scratch and swaps the two, so the
// slice's backing array changes across any call that may balance. Callers
// hold the *sparseRow, never a tail entry pointer, across such calls.
type sparseRow struct {
	own  classEntry // the self class's entry: own.cls is the processor's index
	lOld int32      // own.d at the processor's last balancing operation
	tail []classEntry

	l      int // physical load, Σ_j d[i][j]
	bTot   int // Σ_j b[i][j]
	localT int // balancing operations the processor participated in
}

// search binary-searches the sorted tail for cls, returning the smallest
// index k with tail[k].cls >= cls (== len(tail) if none).
func (r *sparseRow) search(cls int) int {
	lo, hi := 0, len(r.tail)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(r.tail[mid].cls) < cls {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns a pointer to the entry of cls, or nil if the row does not
// hold the class. The pointer is invalidated by any row mutation.
func (r *sparseRow) find(cls int) *classEntry {
	if int(r.own.cls) == cls {
		return &r.own
	}
	if k := r.search(cls); k < len(r.tail) && int(r.tail[k].cls) == cls {
		return &r.tail[k]
	}
	return nil
}

// getD returns the real-packet count of cls (zero if absent).
func (r *sparseRow) getD(cls int) int {
	if e := r.find(cls); e != nil {
		return int(e.d)
	}
	return 0
}

// getB returns the borrow-marker count of cls (zero if absent).
func (r *sparseRow) getB(cls int) int {
	if e := r.find(cls); e != nil {
		return int(e.b)
	}
	return 0
}

// ensure returns cls's entry and its tail index (-1 for the self entry),
// creating an empty tail entry at its sorted position if absent.
func (r *sparseRow) ensure(cls int) (*classEntry, int) {
	if int(r.own.cls) == cls {
		return &r.own, -1
	}
	k := r.search(cls)
	if k < len(r.tail) && int(r.tail[k].cls) == cls {
		return &r.tail[k], k
	}
	r.tail = append(r.tail, classEntry{})
	copy(r.tail[k+1:], r.tail[k:])
	r.tail[k] = classEntry{cls: int32(cls)}
	return &r.tail[k], k
}

// compact shift-removes tail entry k if both its counts reached zero,
// preserving the sorted-tail invariant. The self entry (k < 0) is never
// removed.
func (r *sparseRow) compact(k int) {
	if k < 0 {
		return
	}
	if e := &r.tail[k]; e.d != 0 || e.b != 0 {
		return
	}
	copy(r.tail[k:], r.tail[k+1:])
	r.tail = r.tail[:len(r.tail)-1]
}

// add adjusts cls's d and b counts by the given deltas, creating and
// compacting the entry as needed.
func (r *sparseRow) add(cls, dd, db int) {
	e, k := r.ensure(cls)
	e.d += int32(dd)
	e.b += int32(db)
	r.compact(k)
}

// setD overwrites cls's real-packet count.
func (r *sparseRow) setD(cls, v int) {
	if v == 0 && r.find(cls) == nil {
		return
	}
	e, k := r.ensure(cls)
	e.d = int32(v)
	r.compact(k)
}

// setB overwrites cls's borrow-marker count.
func (r *sparseRow) setB(cls, v int) {
	if v == 0 && r.find(cls) == nil {
		return
	}
	e, k := r.ensure(cls)
	e.b = int32(v)
	r.compact(k)
}

// warm reads the row's header line and the head of its tail (see
// System.WarmOperation).
func (r *sparseRow) warm() int {
	v := int(r.own.d)
	if len(r.tail) > 0 {
		v += int(r.tail[0].d)
	}
	return v
}

// active returns the number of classes the row actually holds (the self
// entry counts only when nonzero).
func (r *sparseRow) active() int {
	cnt := len(r.tail)
	if r.own.d != 0 || r.own.b != 0 {
		cnt++
	}
	return cnt
}
