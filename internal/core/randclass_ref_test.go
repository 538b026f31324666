package core

import (
	"testing"

	"lmbalance/internal/rng"
)

// randClassRef is the class draw as it was before randClass: a predicate
// closure, the qualifying classes collected into a buffer in ascending
// order, then one reservoir pass over the buffer. It is preserved as the
// reference for randClass, which must return the same class and leave the
// generator in the same state (TestRandClassMatchesReference).
func randClassRef(row *sparseRow, pred func(e *classEntry) bool, r *rng.RNG, buf []int) (int, []int) {
	buf = buf[:0]
	selfCls := int(row.own.cls)
	selfDone := !pred(&row.own)
	for k := range row.tail {
		e := &row.tail[k]
		if !selfDone && int(e.cls) > selfCls {
			buf = append(buf, selfCls)
			selfDone = true
		}
		if pred(e) {
			buf = append(buf, int(e.cls))
		}
	}
	if !selfDone {
		buf = append(buf, selfCls)
	}
	pick := -1
	for k, cls := range buf {
		if r.Intn(k+1) == 0 {
			pick = cls
		}
	}
	return pick, buf
}

// refPred is the closure the old callers passed for each mode of randClass.
func refPred(borrow bool) func(e *classEntry) bool {
	if borrow {
		return func(e *classEntry) bool { return e.d > 0 && e.b == 0 }
	}
	return func(e *classEntry) bool { return e.b > 0 }
}

// randomRow builds a row of processor self whose tail holds up to maxTail
// distinct foreign classes below n, sorted and with no empty entry. kind
// shapes the cells: 0 mixed, 1 markers only (d == 0, b > 0), 2 real
// packets only (b == 0), 3 real packets and markers in every entry.
func randomRow(r *rng.RNG, self, n, maxTail, kind int) sparseRow {
	cell := func(allowEmpty bool) classEntry {
		for {
			var e classEntry
			switch kind {
			case 0:
				e.d, e.b = int32(r.Intn(3)), int32(r.Intn(3))
			case 1:
				e.b = int32(r.Intn(3))
			case 2:
				e.d = int32(r.Intn(3))
			case 3:
				e.d, e.b = int32(r.Intn(3)), int32(r.Intn(3))
				if !allowEmpty {
					e.d, e.b = e.d+1, e.b+1
				}
			}
			if allowEmpty || e.d != 0 || e.b != 0 {
				return e
			}
		}
	}
	row := sparseRow{own: cell(true)}
	row.own.cls = int32(self)
	size := r.Intn(maxTail + 1)
	for c := 0; c < n && len(row.tail) < size; c++ {
		if c == self || r.Intn(n) >= 2*size {
			continue
		}
		e := cell(false)
		e.cls = int32(c)
		row.tail = append(row.tail, e)
	}
	return row
}

// checkRandClass draws from row with randClass and with the reference,
// both from seed, and fails unless they pick the same class and leave the
// generators in the same state.
func checkRandClass(t *testing.T, row *sparseRow, borrow bool, seed uint64) {
	t.Helper()
	got, want := rng.New(seed), rng.New(seed)
	g := randClass(row, borrow, got)
	w, _ := randClassRef(row, refPred(borrow), want, nil)
	if g != w {
		t.Fatalf("borrow=%v self=%d tail=%v: randClass picked %d, reference %d", borrow, row.own.cls, row.tail, g, w)
	}
	if a, b := got.Uint64(), want.Uint64(); a != b {
		t.Fatalf("borrow=%v self=%d tail=%v: generator states differ after the draw (%#x vs %#x)", borrow, row.own.cls, row.tail, a, b)
	}
}

func TestRandClassMatchesReference(t *testing.T) {
	mk := func(self int32, own classEntry, tail ...classEntry) sparseRow {
		own.cls = self
		return sparseRow{own: own, tail: tail}
	}
	e := func(cls, d, b int32) classEntry { return classEntry{cls: cls, d: d, b: b} }
	cases := map[string]sparseRow{
		"empty tail, self qualifies for both":  mk(3, e(0, 2, 1)),
		"empty tail, self borrowable":          mk(3, e(0, 2, 0)),
		"empty tail, self holds markers":       mk(3, e(0, 0, 2)),
		"empty tail, empty self":               mk(3, e(0, 0, 0)),
		"self before the tail":                 mk(0, e(0, 1, 1), e(2, 1, 0), e(5, 0, 1), e(7, 2, 0)),
		"self between tail entries":            mk(4, e(0, 1, 1), e(2, 1, 0), e(5, 0, 1), e(7, 2, 0)),
		"self after the tail":                  mk(9, e(0, 1, 1), e(2, 1, 0), e(5, 0, 1), e(7, 2, 0)),
		"all markers":                          mk(4, e(0, 0, 3), e(1, 0, 1), e(6, 0, 2), e(8, 0, 1)),
		"no marker anywhere":                   mk(4, e(0, 1, 0), e(1, 2, 0), e(6, 1, 0)),
		"no qualifier for either mode":         mk(4, e(0, 0, 0)),
		"nothing borrowable, markers on every": mk(4, e(0, 1, 1), e(1, 3, 1), e(6, 1, 2)),
	}
	for name, row := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 64; seed++ {
				checkRandClass(t, &row, true, seed)
				checkRandClass(t, &row, false, seed)
			}
		})
	}

	r := rng.New(42)
	for trial := 0; trial < 4000; trial++ {
		n := 2 + r.Intn(40)
		row := randomRow(r, r.Intn(n), n, r.Intn(n), trial%4)
		seed := r.Uint64()
		checkRandClass(t, &row, true, seed)
		checkRandClass(t, &row, false, seed)
	}
}
