package core

import (
	"lmbalance/internal/rng"
	"lmbalance/internal/topology"
)

// denseSystem is the original dense O(n²)-memory implementation of the
// algorithm, preserved verbatim as the reference oracle for the sparse
// System. Every random choice draws from the RNG in exactly the order the
// production code does, so driving both off identical seeds must yield
// bit-identical d/b/l state and metrics at every step
// (TestSparseMatchesDenseReference).
type denseSystem struct {
	n      int
	params Params
	sel    topology.Selector
	rng    *rng.RNG

	d      []int // d[i*n+j]: real packets of class j on processor i
	b      []int // b[i*n+j]: borrow markers of class j on processor i
	l      []int // physical load, l[i] == Σ_j d[i*n+j]
	bTot   []int // Σ_j b[i*n+j]
	lOld   []int // d[i][i] at processor i's last balancing operation
	localT []int // balancing operations processor i participated in

	metrics Metrics

	candBuf []int
	setBuf  []int
	oldL    []int
	newL    []int
	newBTot []int
}

func newDenseSystem(n int, p Params, sel topology.Selector, r *rng.RNG) *denseSystem {
	m := p.Delta + 2
	return &denseSystem{
		n:       n,
		params:  p,
		sel:     sel,
		rng:     r,
		d:       make([]int, n*n),
		b:       make([]int, n*n),
		l:       make([]int, n),
		bTot:    make([]int, n),
		lOld:    make([]int, n),
		localT:  make([]int, n),
		candBuf: make([]int, 0, p.Delta),
		setBuf:  make([]int, 0, m),
		oldL:    make([]int, m),
		newL:    make([]int, m),
		newBTot: make([]int, m),
	}
}

func (s *denseSystem) Generate(i int) {
	if s.bTot[i] > 0 {
		j := s.randClass(i, func(idx int) bool { return s.b[idx] > 0 })
		s.b[i*s.n+j]--
		s.bTot[i]--
		s.d[i*s.n+j]++
	} else {
		s.d[i*s.n+i]++
	}
	s.l[i]++
	s.metrics.Generated++
	s.maybeBalance(i)
}

func (s *denseSystem) Consume(i int) bool {
	if s.l[i] == 0 {
		s.metrics.ConsumeNoLoad++
		return false
	}
	if s.d[i*s.n+i] > 0 {
		s.d[i*s.n+i]--
		s.l[i]--
		s.metrics.Consumed++
		s.maybeBalance(i)
		return true
	}
	for attempt := 0; attempt <= s.params.C+2; attempt++ {
		if s.l[i] == 0 {
			s.metrics.ConsumeNoLoad++
			return false
		}
		if s.d[i*s.n+i] > 0 {
			s.d[i*s.n+i]--
			s.l[i]--
			s.metrics.Consumed++
			s.maybeBalance(i)
			return true
		}
		if s.bTot[i] < s.params.C {
			j := s.randClass(i, func(idx int) bool { return s.d[idx] > 0 && s.b[idx] == 0 })
			if j >= 0 {
				s.b[i*s.n+j]++
				s.bTot[i]++
				s.d[i*s.n+j]--
				s.l[i]--
				s.metrics.TotalBorrow++
				s.metrics.Consumed++
				return true
			}
		}
		j := s.randClass(i, func(idx int) bool { return s.b[idx] > 0 })
		if j < 0 {
			break
		}
		s.settle(i, j)
	}
	s.metrics.ConsumeNoLoad++
	return false
}

func (s *denseSystem) randClass(i int, pred func(idx int) bool) int {
	base := i * s.n
	pick := -1
	count := 0
	for j := 0; j < s.n; j++ {
		if pred(base + j) {
			count++
			if s.rng.Intn(count) == 0 {
				pick = j
			}
		}
	}
	return pick
}

func (s *denseSystem) maybeBalance(i int) {
	d := s.d[i*s.n+i]
	old := s.lOld[i]
	f := s.params.F
	if d > old && float64(d) >= f*float64(old) {
		s.balance(i)
		return
	}
	if d < old && float64(d)*f <= float64(old) {
		s.balance(i)
	}
}

func (s *denseSystem) balance(init int) {
	s.candBuf = s.sel.Select(init, s.params.Delta, s.rng, s.candBuf)
	s.setBuf = append(s.setBuf[:0], init)
	s.setBuf = append(s.setBuf, s.candBuf...)
	s.balanceSet(s.setBuf)
}

// balanceSet is balance with the participants given, initiator first.
func (s *denseSystem) balanceSet(set []int) {
	init := set[0]
	s.metrics.BalanceOps++
	s.redistribute(set)
	for _, p := range set {
		if !s.params.InitiatorOnlyReset || p == init {
			s.lOld[p] = s.d[p*s.n+p]
		}
		s.localT[p]++
	}
	for _, p := range set {
		if own := s.b[p*s.n+p]; own > 0 {
			s.bTot[p] -= own
			s.b[p*s.n+p] = 0
			s.metrics.DecreaseSim++
		}
	}
}

func (s *denseSystem) redistribute(set []int) {
	m := len(set)
	oldL := s.oldL[:m]
	newL := s.newL[:m]
	newBTot := s.newBTot[:m]
	for k, p := range set {
		oldL[k] = s.l[p]
		newL[k] = 0
		newBTot[k] = 0
	}
	cur := newSnakeCursor(m, s.rng.Intn(m))
	for j := 0; j < s.n; j++ {
		total := 0
		for _, p := range set {
			total += s.d[p*s.n+j]
		}
		if total == 0 {
			continue
		}
		cur.distribute(total, func(k, cnt int) {
			s.d[set[k]*s.n+j] = cnt
			newL[k] += cnt
		})
	}
	for j := 0; j < s.n; j++ {
		total := 0
		for _, p := range set {
			total += s.b[p*s.n+j]
		}
		if total == 0 {
			continue
		}
		cur.distribute(total, func(k, cnt int) {
			s.b[set[k]*s.n+j] = cnt
			newBTot[k] += cnt
		})
	}
	for k, p := range set {
		s.l[p] = newL[k]
		s.bTot[p] = newBTot[k]
		if recv := newL[k] - oldL[k]; recv > 0 {
			s.metrics.Migrations += int64(recv)
		}
	}
}

func (s *denseSystem) settle(i, j int) {
	if j == i {
		s.bTot[i] -= s.b[i*s.n+i]
		s.b[i*s.n+i] = 0
		s.metrics.DecreaseSim++
		return
	}
	if s.d[j*s.n+j] > 0 {
		s.exchange(i, j)
		return
	}
	s.metrics.BorrowFail++
	s.classBalance(j, i)
	if s.b[i*s.n+j] == 0 {
		return
	}
	if s.d[j*s.n+j] > 0 {
		s.exchange(i, j)
		return
	}
	s.b[i*s.n+j]--
	s.bTot[i]--
	s.metrics.ForcedSettle++
	s.metrics.DecreaseSim++
}

func (s *denseSystem) exchange(i, j int) {
	s.d[j*s.n+j]--
	s.l[j]--
	s.d[i*s.n+j]++
	s.l[i]++
	s.b[i*s.n+j]--
	s.bTot[i]--
	s.metrics.RemoteBorrow++
	s.metrics.DecreaseSim++
	s.maybeBalance(j)
}

func (s *denseSystem) classBalance(owner, extra int) {
	cls := owner
	s.metrics.ClassBalanceOps++
	s.candBuf = s.sel.Select(owner, s.params.Delta, s.rng, s.candBuf)
	s.setBuf = append(s.setBuf[:0], owner)
	for _, c := range s.candBuf {
		if c != extra {
			s.setBuf = append(s.setBuf, c)
		}
	}
	if extra != owner {
		s.setBuf = append(s.setBuf, extra)
	}
	set := s.setBuf
	m := len(set)

	totalD, totalB := 0, 0
	for _, p := range set {
		totalD += s.d[p*s.n+cls]
		totalB += s.b[p*s.n+cls]
	}
	cur := newSnakeCursor(m, s.rng.Intn(m))
	cur.distribute(totalD, func(k, cnt int) {
		p := set[k]
		delta := cnt - s.d[p*s.n+cls]
		s.d[p*s.n+cls] = cnt
		s.l[p] += delta
		if delta > 0 {
			s.metrics.Migrations += int64(delta)
		}
	})
	cur.distribute(totalB, func(k, cnt int) {
		p := set[k]
		delta := cnt - s.b[p*s.n+cls]
		s.b[p*s.n+cls] = cnt
		s.bTot[p] += delta
	})
	if own := s.b[owner*s.n+cls]; own > 0 {
		s.bTot[owner] -= own
		s.b[owner*s.n+cls] = 0
		s.metrics.DecreaseSim++
	}
}
