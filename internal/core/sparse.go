package core

import "unsafe"

// classEntry is one nonzero cell of a processor's per-class state: d real
// packets and b borrow markers of class cls, packed to 12 bytes. It is
// the self entry of a row header, and the form of a row's "other" foreign
// classes — the ones that are not a single packet without a marker. The
// foreign classes that are (d, b) = (1, 0), nearly all of them at the
// benchmark's size, are stored as their 4-byte class id alone (see
// sparseRow). NewSystem rejects n > MaxInt32; a cell never exceeds the
// load of its processor (see doc.go for the per-cell bound).
type classEntry struct {
	cls int32
	d   int32
	b   int32
}

// sparseRow is one processor's whole state, laid out as one cache line:
// its own class's entry, held inline (even when zero) so the factor-f
// trigger reads d[i][i] without a search; its trigger base, the
// per-processor totals and local clock; and the tail of the foreign
// classes it holds. A processor step, a trigger re-check and a balancing
// operation's bookkeeping read and write this one line and nothing else;
// only a borrow, a repayment or the balance kernel walks the tail.
// TestRowHeaderIsOneCacheLine pins the size.
//
// The tail holds two sorted lists in one []int32. tail[:ids] is the id
// list: the classes the row holds exactly one packet and no marker of,
// ascending. tail[ids:] is the other list: every other foreign class as a
// (cls, d, b) triple, ascending by class — the borrow markers (at most C
// a row, since Σ_j b[i][j] ≤ C) and the rare multi-packet class. A
// balancing operation is bound on row-entry cache misses, so the entry
// size is the kernel's memory traffic; a one-packet class costs 4 bytes
// instead of 12.
//
// Invariant (canonical form): a foreign class is in exactly one list, and
// in the id list iff its cell is (1, 0); neither list holds an empty entry
// or the self class, and both are sorted ascending. Every mutation keeps
// it (set moves an entry between the lists when it becomes or stops being
// (1, 0), and a balancing operation emits both lists' classes in
// ascending order). Walkers visit the two lists merged in ascending class
// order with the self entry slotted in, which is what lets every
// RNG-consuming iteration visit classes in ascending order — identical to
// a dense 0..n-1 scan, the property the dense differential test pins down
// — without sorting per operation, and what lets a balancing operation be
// one linear merge of its participants' rows (System.redistribute).
// Lookups binary-search the lists; no per-row map is worth its constant
// factor (measured slower on every benchmark workload).
//
// A balancing operation replaces the tail wholesale: it writes the new
// tail into a spare buffer from its Scratch and swaps the two, so the
// slice's backing array changes across any call that may balance. Callers
// hold the *sparseRow, never a slice of its tail, across such calls.
type sparseRow struct {
	own  classEntry // the self class's entry: own.cls is the processor's index
	lOld int32      // own.d at the processor's last balancing operation
	tail []int32    // the id list, then the other list's (cls, d, b) triples

	l      int   // physical load, Σ_j d[i][j]
	bTot   int   // Σ_j b[i][j]
	localT int32 // balancing operations the processor participated in (see doc.go)
	ids    int32 // length of the id list: the other list starts at tail[ids]
}

// idList returns the row's one-packet foreign classes, ascending.
func (r *sparseRow) idList() []int32 { return r.tail[:r.ids] }

// others returns the row's other foreign entries, ascending by class. The
// slice aliases the tail's triples (classEntry is three int32s, so its
// layout and alignment are the triples'); writes through it are writes to
// the row.
func (r *sparseRow) others() []classEntry {
	rest := r.tail[r.ids:]
	if len(rest) == 0 {
		return nil
	}
	return unsafe.Slice((*classEntry)(unsafe.Pointer(&rest[0])), len(rest)/3)
}

// searchIDs returns the smallest index k with ids[k] >= cls (len(ids) if
// none).
func searchIDs(ids []int32, cls int32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < cls {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchOthers returns the smallest index k with o[k].cls >= cls (len(o)
// if none).
func searchOthers(o []classEntry, cls int32) int {
	lo, hi := 0, len(o)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o[mid].cls < cls {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// get returns cls's counts (zero if the row does not hold the class).
func (r *sparseRow) get(cls int) (d, b int) {
	if int(r.own.cls) == cls {
		return int(r.own.d), int(r.own.b)
	}
	c := int32(cls)
	ids := r.idList()
	if k := searchIDs(ids, c); k < len(ids) && ids[k] == c {
		return 1, 0
	}
	o := r.others()
	if k := searchOthers(o, c); k < len(o) && o[k].cls == c {
		return int(o[k].d), int(o[k].b)
	}
	return 0, 0
}

// getD returns the real-packet count of cls (zero if absent).
func (r *sparseRow) getD(cls int) int {
	d, _ := r.get(cls)
	return d
}

// getB returns the borrow-marker count of cls (zero if absent).
func (r *sparseRow) getB(cls int) int {
	_, b := r.get(cls)
	return b
}

// add adjusts cls's d and b counts by the given deltas.
func (r *sparseRow) add(cls, dd, db int) {
	if int(r.own.cls) == cls {
		r.own.d += int32(dd)
		r.own.b += int32(db)
		return
	}
	d, b := r.get(cls)
	r.set(cls, d+dd, b+db)
}

// setD overwrites cls's real-packet count.
func (r *sparseRow) setD(cls, v int) {
	_, b := r.get(cls)
	r.set(cls, v, b)
}

// setB overwrites cls's borrow-marker count.
func (r *sparseRow) setB(cls, v int) {
	d, _ := r.get(cls)
	r.set(cls, d, v)
}

// set overwrites cls's counts, keeping the row canonical: a foreign class
// leaves the list it is in when its cell changes kind, and enters the id
// list as (1, 0), the other list as any other nonzero cell, and neither as
// (0, 0).
func (r *sparseRow) set(cls, d, b int) {
	if int(r.own.cls) == cls {
		r.own.d, r.own.b = int32(d), int32(b)
		return
	}
	c := int32(cls)
	single := d == 1 && b == 0
	ids := r.idList()
	k := searchIDs(ids, c)
	if k < len(ids) && ids[k] == c {
		if single {
			return
		}
		copy(r.tail[k:], r.tail[k+1:])
		r.tail = r.tail[:len(r.tail)-1]
		r.ids--
	} else {
		o := r.others()
		if j := searchOthers(o, c); j < len(o) && o[j].cls == c {
			if !single && (d != 0 || b != 0) {
				o[j].d, o[j].b = int32(d), int32(b)
				return
			}
			at := int(r.ids) + 3*j
			copy(r.tail[at:], r.tail[at+3:])
			r.tail = r.tail[:len(r.tail)-3]
		}
	}
	switch {
	case single:
		r.tail = append(r.tail, 0)
		copy(r.tail[k+1:], r.tail[k:])
		r.tail[k] = c
		r.ids++
	case d != 0 || b != 0:
		at := int(r.ids) + 3*searchOthers(r.others(), c)
		r.tail = append(r.tail, 0, 0, 0)
		copy(r.tail[at+3:], r.tail[at:])
		r.tail[at], r.tail[at+1], r.tail[at+2] = c, int32(d), int32(b)
	}
}

// warm reads the row's header line, the head of its id list and, when the
// row has one, the head of its other list (see System.WarmOperation).
func (r *sparseRow) warm() int {
	v := int(r.own.d)
	if len(r.tail) > 0 {
		v += int(r.tail[0])
	}
	if int(r.ids) < len(r.tail) {
		v += int(r.tail[r.ids])
	}
	return v
}

// active returns the number of classes the row actually holds (the self
// entry counts only when nonzero).
func (r *sparseRow) active() int {
	cnt := int(r.ids) + (len(r.tail)-int(r.ids))/3
	if r.own.d != 0 || r.own.b != 0 {
		cnt++
	}
	return cnt
}
