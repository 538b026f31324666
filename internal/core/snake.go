package core

// snakeDistribute redistributes a sequence of per-class totals over m
// participants so that
//
//   - within each class, any two participants receive counts differing by
//     at most one, and
//   - across all classes processed with the same *offset cursor, the
//     per-participant grand totals also differ by at most one.
//
// It is the "snake like distribution of packets" the paper invokes in §4 to
// make the per-class AND per-processor ±1 constraints simultaneously
// satisfiable.
//
// The mechanism: class totals are split into base = total/m for everyone
// plus rem = total%m single extras. Extras are handed out at consecutive
// circular positions starting at *offset, and *offset advances by rem, so
// over any run of classes the extras visit positions round-robin — after
// processing classes with a combined remainder R, participant p has
// received ⌊R/m⌋ or ⌈R/m⌉ extras.
//
// assign(p, class, count) stores the new count for participant index p.
type snakeCursor struct {
	m      int
	offset int
}

// newSnakeCursor returns a cursor over m participants starting at extra
// position start (start is reduced modulo m). m must be >= 1.
func newSnakeCursor(m, start int) *snakeCursor {
	if m < 1 {
		panic("core: snakeCursor with m < 1")
	}
	return &snakeCursor{m: m, offset: ((start % m) + m) % m}
}

// distribute splits total over the m participants, calling assign(p, cnt)
// with each participant's new count. total must be >= 0.
func (s *snakeCursor) distribute(total int, assign func(p, cnt int)) {
	if total < 0 {
		panic("core: snake distribute with negative total")
	}
	base := total / s.m
	rem := total % s.m
	for p := 0; p < s.m; p++ {
		cnt := base
		if snakeExtra(p, s.offset, rem, s.m) {
			cnt++
		}
		assign(p, cnt)
	}
	s.offset = (s.offset + rem) % s.m
}

// snakeExtra reports whether participant p of m receives one of rem extras
// handed out from position offset: whether p lies within the circular run
// [offset, offset+rem). p and offset are in [0, m).
func snakeExtra(p, offset, rem, m int) bool {
	rel := p - offset
	if rel < 0 {
		rel += m
	}
	return rel < rem
}
