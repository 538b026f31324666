// Package core implements the Lüling–Monien dynamic distributed load
// balancing algorithm (SPAA 1993) — the paper's primary contribution —
// including the full n-processor-generator-consumer machinery of §4 and the
// appendix: virtual load classes, borrowed packets, factor-f triggers and
// snake redistribution.
//
// # Model
//
// n processors each hold integer load packets. In every global time step a
// processor may Generate one packet, Consume one locally available packet,
// or do nothing. Processor i maintains, for every class j ∈ {0..n-1}:
//
//   - d[i][j] — real packets on i that were generated by processor j
//     ("virtual load of class j mapped onto i"),
//   - b[i][j] — packets i has borrowed from class j: i physically consumed
//     a class-j packet although it had no self-generated packets left, so
//     the class-j virtual load pretends the packet still exists.
//
// The invariants maintained at all times (checked by CheckInvariants and
// the property tests) are
//
//	l[i] = Σ_j d[i][j]                   (physical load)
//	virtual[i] = l[i] + Σ_j b[i][j]      (what the analysis sees)
//	Σ_j b[i][j] ≤ C                      (borrow capacity)
//
// and globally, per class j, Σ_i (d[i][j] + b[i][j]) changes only when
// processor j generates, consumes, or simulates a load decrease — the
// property Theorem 4's proof needs so that every class evolves like an
// independent one-processor-generator-consumer system.
//
// # Trigger
//
// Processor i initiates a balancing operation when its self-generated load
// d[i][i] has grown to at least f·l_old or shrunk to at most l_old/f, where
// l_old is d[i][i] at its previous balancing operation. The appendix's
// literal condition degenerates at l_old = 0 (it would fire on every step);
// we additionally require a strict change (d > l_old resp. d < l_old),
// which matches the "increased/decreased by a factor f" prose and the
// one-processor algorithm of the paper's Fig. 1. This is documented as a
// substitution in DESIGN.md.
//
// # Balancing operation
//
// The initiator selects δ distinct partners (uniformly at random in the
// paper's model; pluggable via topology.Selector). The 2n per-class vectors
// (d then b) of the δ+1 participants are redistributed by a single
// snake/balanced-remainder pass (see snake.go; System.redistribute fuses
// it with the merge of the participants' rows, and where one participant
// alone holds a run of consecutive classes it walks the run and deals the
// one-packet classes out without summing or dividing), which guarantees
//
//   - per class: any two participants differ by at most 1 (for d and for b),
//   - per participant: total d, total b, and total d+b each differ by at
//     most 1 across participants,
//   - exact conservation of every class total.
//
// Afterwards every participant p sets l_old := d[p][p] and, if it now holds
// borrow markers of its own class (b[p][p] > 0), clears them — the owner
// "consumes" its own phantoms, a simulated load decrease.
//
// # Borrowing and settlement
//
// Consume on i with d[i][i] = 0 but l[i] > 0 borrows: a real packet of a
// random class j with d[i][j] > 0 and b[i][j] = 0 is consumed physically
// while b[i][j] := 1 keeps the class-j virtual load unchanged. At most one
// packet per class and at most C in total may be outstanding. When no
// borrow slot is available, i settles a random marker b[i][j] > 0 first:
//
//   - j = i: the owner clears its own markers (simulated decrease).
//   - d[j][j] > 0 on processor j: j migrates one real class-j packet to i
//     (l and d adjust on both sides), i clears the marker, and j treats the
//     d[j][j] decrement as a simulated workload decrease, which may trigger
//     a balancing operation on j. This is the paper's "remote borrow"
//     exchange. The paper allows settling up to min(d_jj, Σ_k b_ik) markers
//     in one exchange across classes; since markers are capped at one per
//     class, we settle exactly the class-j marker — the per-class variant
//     that keeps every class's accounting proper (see DESIGN.md).
//   - d[j][j] = 0 ("borrow fail"): class j's packets are scattered. We run
//     the §4 recovery: a class-j-only balancing operation over j, δ random
//     candidates and i, which concentrates class-j packets or markers
//     toward j; then settle as above if possible. If class j has no real
//     packets anywhere among the participants, the marker is force-cleared
//     with a simulated decrease accounted to j (counted separately in
//     Metrics.ForcedSettle; this path is not reachable under the paper's
//     assumptions but guarantees progress under arbitrary adversarial
//     schedules).
//
// All four Table-1 counters (total borrow, remote borrow, borrow fail,
// decrease sim) are recorded in Metrics.
//
// # Representation
//
// d[i][j] and b[i][j] above are the paper's notation, not the storage
// layout: System keeps, per processor, only the classes with a nonzero
// d or b (sparse.go), since a processor's active classes are bounded by
// its load plus outstanding markers — not by n. Memory is O(nnz + n) and
// a balancing operation touches only the participants' active classes.
// Each processor's row header — its own class's cell, l_old, l, Σ_j b[i][j],
// its local clock and the slice of its foreign classes with the length of
// its id list — is one 64-byte cache line, so a step that neither borrows
// nor repays reads and writes that line alone.
// Every randomized choice iterates classes in ascending order, so the
// behaviour (including the consumed RNG stream) is exactly that of the
// dense n×n formulation; dense_ref_test.go holds a verbatim dense
// reference implementation and differential_test.go asserts step-for-step
// equality.
//
// A foreign cell of one packet and no marker — nearly every cell at the
// sharded benchmark's size — is stored as its int32 class id alone; every
// other cell as three int32s (class, d, b). Bounds: n ≤ MaxInt32
// (NewSystem returns an error above it), and d[i][j] ≤ l[i] and
// b[i][j] ≤ Σ_j b[i][j], both at most the system's total load, so every
// cell is exact as long as no single processor holds more than
// MaxInt32 = 2 147 483 647 packets or markers of one class — orders of
// magnitude above any experiment here. The per-processor totals l and bTot
// stay int, a balancing operation sums class totals in int and hands out
// shares no larger than the largest cell it read, and CheckInvariants sums
// the cells in int against l and bTot, so a cell that did wrap shows up as
// a negative count or a sum mismatch instead of passing silently. The
// trigger base l_old is an int32: it is a copy of the int32 cell d[i][i],
// so it holds nothing a cell cannot. The local clock t' is an int32 too,
// to leave the header room for the id list's length: it counts the
// balancing operations the processor took part in, exact up to MaxInt32 of
// them — at the sharded benchmark's 0.73 participations per processor
// step, some three billion steps — and CheckInvariants reports a clock
// that did wrap as negative.
package core
