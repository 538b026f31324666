// Package topology provides candidate-selection strategies for the load
// balancer and the interconnection graphs they are restricted to.
//
// The paper's model (§2) selects the δ balancing partners uniformly at
// random from all processors: "it chooses a subset M ⊆ {1..n}−{p}, |M| = δ
// … at random", independent of how the processors are physically wired —
// the authors argue constant-time balancing is realistic on wormhole-routed
// machines. That strategy is Global here and is the default everywhere.
//
// The paper's closing "further research" item is "taking locality issues on
// specific networks into account"; the remaining selectors implement that
// extension by restricting candidates to graph neighborhoods of classical
// interconnection networks (ring, 2-D torus, hypercube, de Bruijn). They
// are exercised by the ablation experiments.
package topology

import (
	"fmt"

	"lmbalance/internal/rng"
)

// Selector chooses δ distinct balancing partners for a processor.
//
// Implementations must be stateless with respect to selection (all
// randomness comes from the supplied RNG) so that simulations are
// reproducible, and must never return the requesting processor itself or a
// duplicate. If the selector is neighborhood-restricted and the
// neighborhood has fewer than δ members, all neighbors are returned.
type Selector interface {
	// Name identifies the selector in experiment output.
	Name() string
	// N returns the number of processors the selector was built for.
	N() int
	// Select appends the chosen candidate ids for processor self to dst
	// and returns it. delta is the requested number of partners.
	Select(self, delta int, r *rng.RNG, dst []int) []int
}

// Global selects candidates uniformly at random from all processors except
// self — the paper's model.
type Global struct {
	n int
}

// NewGlobal returns the paper's uniform selector over n processors.
// It panics if n < 2: with fewer than two processors there is nobody to
// balance with.
func NewGlobal(n int) *Global {
	if n < 2 {
		panic("topology: Global requires n >= 2")
	}
	return &Global{n: n}
}

// Name implements Selector.
func (g *Global) Name() string { return "global" }

// N implements Selector.
func (g *Global) N() int { return g.n }

// Select implements Selector. If delta >= n−1 every other processor is
// selected.
func (g *Global) Select(self, delta int, r *rng.RNG, dst []int) []int {
	if delta > g.n-1 {
		delta = g.n - 1
	}
	return r.SampleDistinct(g.n, delta, self, dst)
}

// Graph is an undirected interconnection network on n vertices given by
// adjacency lists. Vertices are 0-based processor ids.
type Graph struct {
	name string
	adj  [][]int
}

// NewGraph builds a graph from adjacency lists. The lists are retained (not
// copied); callers must not modify them afterwards. NewGraph validates that
// no vertex lists itself and that every listed neighbor is in range,
// panicking otherwise — a malformed network is a programming error, not a
// runtime condition.
func NewGraph(name string, adj [][]int) *Graph {
	for v, ns := range adj {
		for _, u := range ns {
			if u == v {
				panic(fmt.Sprintf("topology: vertex %d lists itself", v))
			}
			if u < 0 || u >= len(adj) {
				panic(fmt.Sprintf("topology: vertex %d lists out-of-range neighbor %d", v, u))
			}
		}
	}
	return &Graph{name: name, adj: adj}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// Neighbors returns the adjacency list of v. The returned slice must not be
// modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Connected reports whether the graph is connected (true for the empty and
// single-vertex graph).
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == n
}

// Diameter returns the graph diameter via BFS from every vertex, or -1 if
// the graph is disconnected. Intended for tests and experiment metadata,
// not hot paths.
func (g *Graph) Diameter() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	diameter := 0
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g.adj[v] {
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
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}

// Neighborhood is a Selector restricted to a graph: candidates are drawn
// uniformly from the requesting processor's direct neighbors.
type Neighborhood struct {
	g *Graph
}

// NewNeighborhood wraps a graph as a locality-restricted selector.
func NewNeighborhood(g *Graph) *Neighborhood { return &Neighborhood{g: g} }

// Name implements Selector.
func (s *Neighborhood) Name() string { return "nbr:" + s.g.Name() }

// N implements Selector.
func (s *Neighborhood) N() int { return s.g.N() }

// Select implements Selector, sampling delta distinct neighbors of self (or
// all neighbors if the degree is smaller than delta).
func (s *Neighborhood) Select(self, delta int, r *rng.RNG, dst []int) []int {
	ns := s.g.Neighbors(self)
	if delta >= len(ns) {
		return append(dst[:0], ns...)
	}
	idx := r.SampleDistinct(len(ns), delta, -1, nil)
	dst = dst[:0]
	for _, i := range idx {
		dst = append(dst, ns[i])
	}
	return dst
}

// Ring returns the cycle graph C_n. It panics if n < 3.
func Ring(n int) *Graph {
	if n < 3 {
		panic("topology: Ring requires n >= 3")
	}
	adj := make([][]int, n)
	for v := range adj {
		adj[v] = []int{(v + n - 1) % n, (v + 1) % n}
	}
	return NewGraph(fmt.Sprintf("ring%d", n), adj)
}

// Torus2D returns the rows×cols torus (wraparound grid). Each vertex has
// degree 4 (degree 2 when a dimension has length 1 is rejected: both
// dimensions must be >= 3 so that wraparound edges are distinct).
func Torus2D(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("topology: Torus2D requires both dimensions >= 3")
	}
	n := rows * cols
	adj := make([][]int, n)
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := id(r, c)
			adj[v] = []int{id(r-1, c), id(r+1, c), id(r, c-1), id(r, c+1)}
		}
	}
	return NewGraph(fmt.Sprintf("torus%dx%d", rows, cols), adj)
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices.
// It panics if dim < 1 or dim > 20.
func Hypercube(dim int) *Graph {
	if dim < 1 || dim > 20 {
		panic("topology: Hypercube dimension out of range [1,20]")
	}
	n := 1 << dim
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		ns := make([]int, dim)
		for b := 0; b < dim; b++ {
			ns[b] = v ^ (1 << b)
		}
		adj[v] = ns
	}
	return NewGraph(fmt.Sprintf("hypercube%d", dim), adj)
}

// DeBruijn returns the undirected version of the binary de Bruijn graph on
// 2^dim vertices: v is adjacent to (2v mod n), (2v+1 mod n) and the vertices
// that map to v, with self-loops and duplicates removed. De Bruijn networks
// were the topology of the Paderborn transputer systems the authors worked
// with (cited [13]).
func DeBruijn(dim int) *Graph {
	if dim < 2 || dim > 20 {
		panic("topology: DeBruijn dimension out of range [2,20]")
	}
	n := 1 << dim
	sets := make([]map[int]struct{}, n)
	for v := 0; v < n; v++ {
		sets[v] = make(map[int]struct{}, 4)
	}
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		sets[a][b] = struct{}{}
		sets[b][a] = struct{}{}
	}
	for v := 0; v < n; v++ {
		addEdge(v, (2*v)%n)
		addEdge(v, (2*v+1)%n)
	}
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		ns := make([]int, 0, len(sets[v]))
		for u := range sets[v] {
			ns = append(ns, u)
		}
		// Sort for determinism (map iteration order is random).
		for i := 1; i < len(ns); i++ {
			for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
				ns[j], ns[j-1] = ns[j-1], ns[j]
			}
		}
		adj[v] = ns
	}
	return NewGraph(fmt.Sprintf("debruijn%d", dim), adj)
}
