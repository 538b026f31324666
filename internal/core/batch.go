package core

import "lmbalance/internal/rng"

// Batched balancing entry points for the sharded simulation engine
// (internal/sim). During a tick's step phase each shard drives its Lane
// and defers every balancing condition into a per-shard mailbox; at the
// tick barrier the engine sorts the deferred operations into canonical
// (shard, local index) order and resolves them through these entry points.
// Every trigger operation's random draws are made up front from its private
// per-operation RNG stream; operations over disjoint participant sets then
// execute concurrently on worker goroutines, each with a per-worker Scratch
// and a per-worker Metrics; settlements run serially on the barrier stream.
// Because a balancing operation reads and writes only its δ+1 participants
// plus the caller-owned pair, concurrent execution of disjoint operations
// is equivalent to executing them serially in canonical order — which is
// what keeps the sharded engine bit-identical for every worker count.

// DrawOperation makes every random draw of a balancing operation initiated
// by init, in the order the algorithm consumes them: the δ distinct
// partners (appended to dst[:0]) and then the snake's start position among
// the participants. The sharded engine draws each deferred operation from
// its private stream once, during barrier planning — the partners decide
// which operations may resolve concurrently — and executes it later with
// BalanceDrawn. Drawing reads no balancing state, so it may run
// concurrently with other draws (each on its own stream and dst).
func (s *System) DrawOperation(init int, r *rng.RNG, dst []int) (partners []int, start int) {
	partners = s.sel.Select(init, s.params.Delta, r, dst)
	return partners, r.Intn(len(partners) + 1)
}

// BalanceDrawn performs one full balancing operation initiated by init
// with the draws DrawOperation made for it. It consumes no randomness, and
// all mutated state belongs to the participants, sc and m, so calls over
// disjoint participant sets may run concurrently.
func (s *System) BalanceDrawn(init int, partners []int, start int, sc *Scratch, m *Metrics) {
	s.balanceSet(init, partners, start, sc, m)
}

// WarmOperation reads the row header, the head of the id list and, when
// the row has one, the head of the other list of init and of each
// partner, as loads independent of one another, and returns a
// value that depends on all of them; the caller keeps it so the loads are
// not optimised away. The sharded engine calls it on a window of
// operations before executing them, so that their participants' cache
// misses overlap instead of each operation stalling on its own. It writes
// nothing, so it may run concurrently with operations over other
// participants.
func (s *System) WarmOperation(init int, partners []int) int {
	v := s.rows[init].warm()
	for _, p := range partners {
		v += s.rows[p].warm()
	}
	return v
}

// SettleConsume completes a consume that a Lane deferred because it
// required marker settlement. It runs the full sequential consume path —
// settlement, class recovery, any cascading balancing operations — against
// the System's own scratch and metrics, and must only be called serially
// (the barrier's settlement pass). It returns whether a packet was
// consumed.
func (s *System) SettleConsume(i int, r *rng.RNG) bool {
	return s.consume(i, r, s.sc, &s.metrics)
}
