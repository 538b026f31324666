package topology

import (
	"testing"
	"testing/quick"

	"lmbalance/internal/rng"
)

func TestGlobalBasics(t *testing.T) {
	g := NewGlobal(8)
	if g.Name() != "global" || g.N() != 8 {
		t.Fatal("metadata wrong")
	}
	r := rng.New(1)
	for i := 0; i < 500; i++ {
		self := r.Intn(8)
		got := g.Select(self, 3, r, nil)
		if len(got) != 3 {
			t.Fatalf("got %d candidates", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v == self || v < 0 || v >= 8 || seen[v] {
				t.Fatalf("bad candidate set %v for self=%d", got, self)
			}
			seen[v] = true
		}
	}
}

func TestGlobalDeltaClamped(t *testing.T) {
	g := NewGlobal(4)
	r := rng.New(2)
	got := g.Select(0, 10, r, nil)
	if len(got) != 3 {
		t.Fatalf("expected clamp to n-1=3, got %d", len(got))
	}
}

func TestGlobalPanicsOnTinyN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGlobal(1) did not panic")
		}
	}()
	NewGlobal(1)
}

// TestGlobalUniform verifies each other processor is selected equally often
// — the "chosen at random" premise of every lemma in the paper.
func TestGlobalUniform(t *testing.T) {
	g := NewGlobal(10)
	r := rng.New(3)
	counts := make([]int, 10)
	const trials = 45000
	for i := 0; i < trials; i++ {
		for _, v := range g.Select(0, 2, r, nil) {
			counts[v]++
		}
	}
	if counts[0] != 0 {
		t.Fatal("self was selected")
	}
	expected := float64(trials*2) / 9
	for v := 1; v < 10; v++ {
		dev := float64(counts[v])/expected - 1
		if dev > 0.05 || dev < -0.05 {
			t.Fatalf("candidate %d frequency off by %.1f%%", v, dev*100)
		}
	}
}

func TestRing(t *testing.T) {
	g := Ring(6)
	if g.N() != 6 {
		t.Fatal("wrong size")
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("ring degree at %d = %d", v, g.Degree(v))
		}
	}
	if diameter(g) < 0 {
		t.Fatal("ring disconnected")
	}
	if d := diameter(g); d != 3 {
		t.Fatalf("C6 diameter = %d, want 3", d)
	}
}

func TestTorus(t *testing.T) {
	g := Torus2D(4, 4)
	if g.N() != 16 {
		t.Fatal("wrong size")
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree at %d = %d", v, g.Degree(v))
		}
	}
	if diameter(g) < 0 {
		t.Fatal("torus disconnected")
	}
	if d := diameter(g); d != 4 {
		t.Fatalf("4x4 torus diameter = %d, want 4", d)
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 {
		t.Fatal("wrong size")
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree at %d = %d", v, g.Degree(v))
		}
		for _, u := range g.Neighbors(v) {
			// Each neighbor differs in exactly one bit.
			x := u ^ v
			if x&(x-1) != 0 || x == 0 {
				t.Fatalf("neighbor %d of %d differs in more than one bit", u, v)
			}
		}
	}
	if d := diameter(g); d != 4 {
		t.Fatalf("Q4 diameter = %d, want 4", d)
	}
}

func TestDeBruijn(t *testing.T) {
	g := DeBruijn(4)
	if g.N() != 16 {
		t.Fatal("wrong size")
	}
	if diameter(g) < 0 {
		t.Fatal("de Bruijn disconnected")
	}
	// Undirected binary de Bruijn has max degree 4.
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > 4 || g.Degree(v) < 1 {
			t.Fatalf("degree at %d = %d", v, g.Degree(v))
		}
	}
	// Shift edges must exist where not self-loops.
	for v := 0; v < g.N(); v++ {
		want := (2 * v) % g.N()
		if want == v {
			continue
		}
		found := false
		for _, u := range g.Neighbors(v) {
			if u == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing shift edge %d-%d", v, want)
		}
	}
}

func TestNeighborhoodSelector(t *testing.T) {
	g := Ring(8)
	s := NewNeighborhood(g)
	if s.N() != 8 {
		t.Fatal("wrong N")
	}
	r := rng.New(6)
	// delta=1 picks one of the two ring neighbors.
	for i := 0; i < 200; i++ {
		got := s.Select(3, 1, r, nil)
		if len(got) != 1 || (got[0] != 2 && got[0] != 4) {
			t.Fatalf("ring neighborhood pick = %v", got)
		}
	}
	// delta >= degree returns all neighbors.
	got := s.Select(3, 5, r, nil)
	if len(got) != 2 {
		t.Fatalf("oversized delta should return whole neighborhood, got %v", got)
	}
}

// TestNeighborhoodProperties: selections are distinct actual neighbors.
func TestNeighborhoodProperties(t *testing.T) {
	r := rng.New(7)
	g := Torus2D(5, 5)
	s := NewNeighborhood(g)
	prop := func(selfRaw, deltaRaw uint8) bool {
		self := int(selfRaw) % 25
		delta := 1 + int(deltaRaw)%4
		got := s.Select(self, delta, r, nil)
		isNbr := map[int]bool{}
		for _, u := range g.Neighbors(self) {
			isNbr[u] = true
		}
		seen := map[int]bool{}
		for _, v := range got {
			if !isNbr[v] || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(got) == min(delta, g.Degree(self))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop adjacency did not panic")
		}
	}()
	NewGraph("bad", [][]int{{0}})
}

func TestGraphValidationRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range adjacency did not panic")
		}
	}()
	NewGraph("bad", [][]int{{5}, {0}})
}

func TestDisconnectedDiameter(t *testing.T) {
	g := NewGraph("disc", [][]int{{1}, {0}, {3}, {2}})
	if d := diameter(g); d != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", d)
	}
}

func BenchmarkGlobalSelect(b *testing.B) {
	g := NewGlobal(1024)
	r := rng.New(1)
	buf := make([]int, 0, 8)
	for i := 0; i < b.N; i++ {
		buf = g.Select(i%1024, 4, r, buf)
	}
}

func BenchmarkNeighborhoodSelect(b *testing.B) {
	s := NewNeighborhood(Hypercube(10))
	r := rng.New(1)
	buf := make([]int, 0, 8)
	for i := 0; i < b.N; i++ {
		buf = s.Select(i%1024, 4, r, buf)
	}
}

// diameter returns g's diameter via BFS from every vertex, or -1 if g is
// disconnected.
func diameter(g *Graph) int {
	n := g.N()
	diameter := 0
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g.Neighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			diameter = max(diameter, d)
		}
	}
	return diameter
}
