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

// sparseRow stores the per-class state of one processor compactly: only
// classes with d > 0 or b > 0 occupy an entry, except the processor's own
// class, which is pinned at entries[0] (even when zero) so the factor-f
// trigger can read d[i][i] without a search.
//
// Invariant: entries[1:] is sorted ascending by class and holds no empty
// entries (removal shifts, insertion binary-searches, and a balancing
// operation emits its merged classes in ascending order). Keeping the tail
// sorted is what lets every RNG-consuming iteration visit classes in
// ascending order — identical to a dense 0..n-1 scan, the property the
// dense differential test pins down — without sorting per operation, and
// what lets a balancing operation be one linear merge of its participants'
// rows (System.redistribute). Lookups binary-search the tail; no per-row
// map is worth its constant factor (measured slower on every benchmark
// workload).
//
// A balancing operation replaces entries wholesale: it writes the new row
// into a spare buffer from its Scratch and swaps the two, so the slice's
// backing array changes across any call that may balance. Callers hold the
// *sparseRow, never an entry pointer, across such calls.
type sparseRow struct {
	self    int
	entries []classEntry
}

// own returns the pinned self-class entry.
func (r *sparseRow) own() *classEntry { return &r.entries[0] }

// search binary-searches the sorted tail for cls, returning the smallest
// index k >= 1 with entries[k].cls >= cls (== len(entries) if none).
func (r *sparseRow) search(cls int) int {
	lo, hi := 1, len(r.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(r.entries[mid].cls) < cls {
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
	if r.self == cls {
		return &r.entries[0]
	}
	if k := r.search(cls); k < len(r.entries) && int(r.entries[k].cls) == cls {
		return &r.entries[k]
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

// ensure returns the index of cls's entry, creating an empty one at its
// sorted tail position if absent.
func (r *sparseRow) ensure(cls int) int {
	if r.self == cls {
		return 0
	}
	k := r.search(cls)
	if k < len(r.entries) && int(r.entries[k].cls) == cls {
		return k
	}
	r.entries = append(r.entries, classEntry{})
	copy(r.entries[k+1:], r.entries[k:])
	r.entries[k] = classEntry{cls: int32(cls)}
	return k
}

// compact shift-removes the entry at idx if both its counts reached zero,
// preserving the sorted-tail invariant. The self entry is never removed.
func (r *sparseRow) compact(idx int) {
	if idx == 0 {
		return
	}
	e := &r.entries[idx]
	if e.d != 0 || e.b != 0 {
		return
	}
	last := len(r.entries) - 1
	copy(r.entries[idx:], r.entries[idx+1:])
	r.entries = r.entries[:last]
}

// add adjusts cls's d and b counts by the given deltas, creating and
// compacting the entry as needed.
func (r *sparseRow) add(cls, dd, db int) {
	idx := r.ensure(cls)
	e := &r.entries[idx]
	e.d += int32(dd)
	e.b += int32(db)
	r.compact(idx)
}

// setD overwrites cls's real-packet count.
func (r *sparseRow) setD(cls, v int) {
	if v == 0 && r.find(cls) == nil {
		return
	}
	idx := r.ensure(cls)
	r.entries[idx].d = int32(v)
	r.compact(idx)
}

// setB overwrites cls's borrow-marker count.
func (r *sparseRow) setB(cls, v int) {
	if v == 0 && r.find(cls) == nil {
		return
	}
	idx := r.ensure(cls)
	r.entries[idx].b = int32(v)
	r.compact(idx)
}

// active returns the number of classes the row actually holds (the pinned
// self entry counts only when nonzero).
func (r *sparseRow) active() int {
	cnt := len(r.entries)
	if e := &r.entries[0]; e.d == 0 && e.b == 0 {
		cnt--
	}
	return cnt
}
