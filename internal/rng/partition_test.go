package rng

import "testing"

// TestPartitionKeyedNotOrdered is the property Split cannot give: the
// stream for a key is the same no matter how many or in which order other
// streams were derived first.
func TestPartitionKeyedNotOrdered(t *testing.T) {
	p := NewPartition(42)
	a1 := p.Stream(StreamOrder, 3).Uint64()
	// Derive a pile of unrelated streams in between.
	for i := uint64(0); i < 10; i++ {
		_ = p.Stream(StreamStep, i).Uint64()
		_ = New(p.OpSeed(i, i)).Uint64()
	}
	a2 := p.Stream(StreamOrder, 3).Uint64()
	if a1 != a2 {
		t.Fatal("stream for a fixed key changed after deriving other streams")
	}
	q := NewPartition(42)
	if q.Stream(StreamOrder, 3).Uint64() != a1 {
		t.Fatal("fresh Partition over the same master gives a different stream")
	}
}

func TestPartitionKeysDistinct(t *testing.T) {
	p := NewPartition(7)
	seen := map[uint64][2]uint64{}
	kinds := []StreamKind{StreamPattern, StreamBalancer, StreamOrder, StreamStep, StreamOp, StreamSettle}
	for _, k := range kinds {
		for idx := uint64(0); idx < 64; idx++ {
			s := p.Seed(k, idx)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d)", prev[0], prev[1], uint64(k), idx)
			}
			seen[s] = [2]uint64{uint64(k), idx}
		}
	}
}

func TestPartitionMastersDiverge(t *testing.T) {
	a := NewPartition(1).Stream(StreamOrder, 0)
	b := NewPartition(2).Stream(StreamOrder, 0)
	same := 0
	for i := 0; i < 16; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/16 values collide across masters", same)
	}
}

// TestOpSeedNoCrossTickAliasing: op k of tick t must not replay op k' of
// tick t' even when tick and rank values swap. The streams are walked on
// one reseeded generator, as the sharded engine walks them.
func TestOpSeedNoCrossTickAliasing(t *testing.T) {
	p := NewPartition(9)
	r := New(0)
	r.Reseed(p.OpSeed(3, 5))
	a := r.Uint64()
	r.Reseed(p.OpSeed(5, 3))
	if r.Uint64() == a {
		t.Fatal("OpSeed(3,5) aliases OpSeed(5,3)")
	}
	r.Reseed(p.OpSeed(3, 5))
	if r.Uint64() != a {
		t.Fatal("OpSeed not deterministic")
	}
	if New(p.OpSeed(3, 5)).Uint64() != a {
		t.Fatal("Reseed(seed) and New(seed) disagree")
	}
}

// TestSampleDistinctSmallLargeAgree pins the small-k linear-scan path to
// the map path: both must consume the identical Intn sequence and produce
// identical picks (the small-k path sits on the balancer's hot path; the
// stream contract must not depend on which path runs).
func TestSampleDistinctSmallLargeAgree(t *testing.T) {
	// k = 16 uses the array path, k = 17 the map path; drive both from
	// identical streams and compare against an independent reference
	// implementation of Floyd's algorithm.
	for _, k := range []int{1, 2, 15, 16, 17, 40} {
		r1 := New(77)
		r2 := New(77)
		got := r1.SampleDistinct(100, k, 4, nil)
		want := refFloyd(r2, 100, k, 4)
		if len(got) != len(want) {
			t.Fatalf("k=%d: len %d vs %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: pick %d: %d vs %d", k, i, got[i], want[i])
			}
		}
		// Streams must be in identical positions afterwards.
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("k=%d: stream positions diverge", k)
		}
	}
}

// refFloyd is a straightforward map-based Floyd's sampler used as the
// reference for both SampleDistinct code paths.
func refFloyd(r *RNG, n, k, skip int) []int {
	avail := n
	if skip >= 0 && skip < n {
		avail--
	}
	translate := func(v int) int {
		if skip >= 0 && v >= skip {
			return v + 1
		}
		return v
	}
	seen := make(map[int]struct{}, k)
	var out []int
	for j := avail - k; j < avail; j++ {
		t := r.Intn(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, translate(t))
	}
	return out
}
