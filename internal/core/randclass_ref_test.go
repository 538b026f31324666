package core

import (
	"testing"

	"lmbalance/internal/rng"
)

// randClassRef is the class draw as it was before randClass: a predicate
// closure, the qualifying classes collected into a buffer in ascending
// order, then one reservoir pass over the buffer. It runs over a row as
// one list of cells — the self entry and the ascending foreign cells, as
// rows were stored before the id list — and is preserved as the reference
// for randClass, which must return the same class and leave the generator
// in the same state (TestRandClassMatchesReference).
func randClassRef(own classEntry, tail []classEntry, pred func(e *classEntry) bool, r *rng.RNG, buf []int) (int, []int) {
	buf = buf[:0]
	selfCls := int(own.cls)
	selfDone := !pred(&own)
	for k := range tail {
		e := &tail[k]
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

// foreignCells rebuilds a row's foreign cells as one list in ascending
// class order: the id list's classes as (1, 0) cells merged with the
// other list.
func foreignCells(row *sparseRow) []classEntry {
	var cells []classEntry
	ids, others := row.idList(), row.others()
	for len(ids) > 0 || len(others) > 0 {
		if len(others) == 0 || len(ids) > 0 && ids[0] < others[0].cls {
			cells = append(cells, classEntry{cls: ids[0], d: 1})
			ids = ids[1:]
		} else {
			cells = append(cells, others[0])
			others = others[1:]
		}
	}
	return cells
}

// buildRow returns the canonical row of processor self with the given
// self cell and foreign cells, entered one at a time through set.
func buildRow(self int, own classEntry, cells ...classEntry) sparseRow {
	row := sparseRow{own: own}
	row.own.cls = int32(self)
	for _, e := range cells {
		row.set(int(e.cls), int(e.d), int(e.b))
	}
	return row
}

// randomCell draws a cell that mixes the row's kinds: mostly one packet
// and no marker (an id), then markers with and without packets, and
// multi-packet classes; empty only if allowEmpty.
func randomCell(r *rng.RNG, allowEmpty bool) classEntry {
	for {
		var e classEntry
		switch r.Intn(6) {
		case 0, 1, 2:
			e.d = 1
		case 3:
			e.d, e.b = int32(r.Intn(3)), 1+int32(r.Intn(2))
		case 4:
			e.d = 2 + int32(r.Intn(3))
		case 5:
			e.d, e.b = int32(r.Intn(3)), int32(r.Intn(3))
		}
		if allowEmpty || e.d != 0 || e.b != 0 {
			return e
		}
	}
}

// checkRandClass draws from row with randClass and with the reference,
// both from seed, and fails unless they pick the same class and leave the
// generators in the same state.
func checkRandClass(t *testing.T, row *sparseRow, borrow bool, seed uint64) {
	t.Helper()
	got, want := rng.New(seed), rng.New(seed)
	tail := foreignCells(row)
	g := randClass(row, borrow, got)
	w, _ := randClassRef(row.own, tail, refPred(borrow), want, nil)
	if g != w {
		t.Fatalf("borrow=%v self=%v tail=%v: randClass picked %d, reference %d", borrow, row.own, tail, g, w)
	}
	if a, b := got.Uint64(), want.Uint64(); a != b {
		t.Fatalf("borrow=%v self=%v tail=%v: generator states differ after the draw (%#x vs %#x)", borrow, row.own, tail, a, b)
	}
}

func TestRandClassMatchesReference(t *testing.T) {
	e := func(cls, d, b int32) classEntry { return classEntry{cls: cls, d: d, b: b} }
	cases := map[string]sparseRow{
		"empty tail, self qualifies for both":  buildRow(3, e(0, 2, 1)),
		"empty tail, self borrowable":          buildRow(3, e(0, 2, 0)),
		"empty tail, self holds markers":       buildRow(3, e(0, 0, 2)),
		"empty tail, empty self":               buildRow(3, e(0, 0, 0)),
		"self before the tail":                 buildRow(0, e(0, 1, 1), e(2, 1, 0), e(5, 0, 1), e(7, 2, 0)),
		"self between tail entries":            buildRow(4, e(0, 1, 1), e(2, 1, 0), e(5, 0, 1), e(7, 2, 0)),
		"self after the tail":                  buildRow(9, e(0, 1, 1), e(2, 1, 0), e(5, 0, 1), e(7, 2, 0)),
		"all markers":                          buildRow(4, e(0, 0, 3), e(1, 0, 1), e(6, 0, 2), e(8, 0, 1)),
		"no marker anywhere":                   buildRow(4, e(0, 1, 0), e(1, 2, 0), e(6, 1, 0)),
		"no qualifier for either mode":         buildRow(4, e(0, 0, 0)),
		"nothing borrowable, markers on every": buildRow(4, e(0, 1, 1), e(1, 3, 1), e(6, 1, 2)),
		"ids only, self borrowable":            buildRow(4, e(0, 3, 0), e(1, 1, 0), e(2, 1, 0), e(6, 1, 0), e(9, 1, 0)),
		"ids around a multi-packet class":      buildRow(8, e(0, 0, 0), e(1, 1, 0), e(3, 4, 0), e(5, 1, 0), e(6, 1, 0)),
		"a marker between ids":                 buildRow(8, e(0, 0, 1), e(1, 1, 0), e(3, 0, 1), e(5, 1, 0), e(9, 1, 0)),
	}
	for name, row := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 64; seed++ {
				checkRandClass(t, &row, true, seed)
				checkRandClass(t, &row, false, seed)
			}
		})
	}

	// Random rows of m foreign cells at the odd classes 1, 3, …, 2m−1 that
	// mix ids, marker entries and multi-packet entries, with the self class
	// at each even class 0, 2, …, 2m: before, between and after them all.
	r := rng.New(42)
	for trial := 0; trial < 400; trial++ {
		m := r.Intn(24)
		var cells []classEntry
		for k := 0; k < m; k++ {
			c := randomCell(r, false)
			c.cls = int32(2*k + 1)
			cells = append(cells, c)
		}
		for pos := 0; pos <= m; pos++ {
			row := buildRow(2*pos, randomCell(r, true), cells...)
			seed := r.Uint64()
			checkRandClass(t, &row, true, seed)
			checkRandClass(t, &row, false, seed)
		}
	}
}
