package coloring

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// clique returns the complete undirected graph on n vertices.
func clique(n int) Adjacency {
	adj := make(Adjacency, n)
	for i := 0; i < n; i++ {
		adj[graph.NodeID(i)] = nil
		for j := 0; j < n; j++ {
			if i != j {
				adj[graph.NodeID(i)] = append(adj[graph.NodeID(i)], graph.NodeID(j))
			}
		}
	}
	return adj
}

// cycle returns the undirected cycle on n vertices.
func cycle(n int) Adjacency {
	adj := make(Adjacency, n)
	for i := 0; i < n; i++ {
		u := graph.NodeID(i)
		adj[u] = []graph.NodeID{graph.NodeID((i + 1) % n), graph.NodeID((i + n - 1) % n)}
	}
	return adj
}

// completeBipartite returns K_{a,b}: vertices 0..a-1 vs a..a+b-1.
func completeBipartite(a, b int) Adjacency {
	adj := make(Adjacency)
	for i := 0; i < a; i++ {
		for j := a; j < a+b; j++ {
			adj[graph.NodeID(i)] = append(adj[graph.NodeID(i)], graph.NodeID(j))
			adj[graph.NodeID(j)] = append(adj[graph.NodeID(j)], graph.NodeID(i))
		}
	}
	return adj
}

// randomAdjacency builds a random undirected graph.
func randomAdjacency(seed uint64, n int, p float64) Adjacency {
	rng := xrand.New(seed)
	adj := make(Adjacency, n)
	for i := 0; i < n; i++ {
		adj[graph.NodeID(i)] = nil
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				u, v := graph.NodeID(i), graph.NodeID(j)
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
	}
	return adj
}

func TestGreedyProperOnRandom(t *testing.T) {
	f := func(seed uint64) bool {
		adj := randomAdjacency(seed, 20, 0.3)
		a := Greedy(adj, IdentityOrder(adj))
		return Proper(adj, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDSATURProperOnRandom(t *testing.T) {
	f := func(seed uint64) bool {
		adj := randomAdjacency(seed, 20, 0.3)
		return Proper(adj, dsatur(adj))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCliqueNeedsNColors(t *testing.T) {
	for n := 1; n <= 8; n++ {
		adj := clique(n)
		for name, a := range map[string]toca.Assignment{
			"greedy": Greedy(adj, IdentityOrder(adj)),
			"dsatur": dsatur(adj),
		} {
			if !Proper(adj, a) {
				t.Fatalf("%s: improper on K_%d", name, n)
			}
			if got := CountColors(a); got != n {
				t.Fatalf("%s: K_%d used %d colors", name, n, got)
			}
		}
	}
}

func TestEvenCycleTwoColors(t *testing.T) {
	adj := cycle(10)
	a := dsatur(adj)
	if !Proper(adj, a) || CountColors(a) != 2 {
		t.Fatalf("even cycle: %d colors, proper=%v", CountColors(a), Proper(adj, a))
	}
}

func TestOddCycleThreeColors(t *testing.T) {
	adj := cycle(9)
	a := dsatur(adj)
	if !Proper(adj, a) || CountColors(a) != 3 {
		t.Fatalf("odd cycle: %d colors, proper=%v", CountColors(a), Proper(adj, a))
	}
}

// TestDSATURBipartiteExact: DSATUR is exact on bipartite graphs (a known
// property of the heuristic).
func TestDSATURBipartiteExact(t *testing.T) {
	for _, dims := range [][2]int{{3, 4}, {5, 5}, {1, 7}, {2, 2}} {
		adj := completeBipartite(dims[0], dims[1])
		a := dsatur(adj)
		if !Proper(adj, a) || CountColors(a) != 2 {
			t.Fatalf("K_%d,%d: %d colors", dims[0], dims[1], CountColors(a))
		}
	}
}

func TestSmallestLastOrderIsPermutation(t *testing.T) {
	adj := randomAdjacency(17, 25, 0.25)
	order := SmallestLastOrder(adj)
	if len(order) != len(adj) {
		t.Fatalf("order length %d, want %d", len(order), len(adj))
	}
	seen := make(map[graph.NodeID]bool)
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate %d in order", id)
		}
		seen[id] = true
	}
	a := Greedy(adj, order)
	if !Proper(adj, a) {
		t.Fatal("greedy over smallest-last order improper")
	}
}

func TestLargestFirstOrder(t *testing.T) {
	// Star: center has max degree and must come first.
	adj := completeBipartite(1, 6)
	order := LargestFirstOrder(adj)
	if order[0] != 0 {
		t.Fatalf("star center not first: %v", order)
	}
	a := Greedy(adj, order)
	if !Proper(adj, a) || CountColors(a) != 2 {
		t.Fatalf("star: %d colors", CountColors(a))
	}
}

// TestDSATURNotWorseThanIdentityGreedy on random instances — DSATUR is a
// strictly smarter heuristic; allow equality but catch regressions where
// it would be systematically worse.
func TestDSATURNotMuchWorseThanGreedy(t *testing.T) {
	rng := xrand.New(555)
	worse := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		adj := randomAdjacency(rng.Uint64(), 30, 0.3)
		d := CountColors(dsatur(adj))
		g := CountColors(Greedy(adj, IdentityOrder(adj)))
		if d > g {
			worse++
		}
	}
	if worse > trials/4 {
		t.Fatalf("DSATUR worse than identity greedy in %d/%d trials", worse, trials)
	}
}

func TestProperRejects(t *testing.T) {
	adj := cycle(4)
	bad := toca.Assignment{0: 1, 1: 1, 2: 2, 3: 2}
	if Proper(adj, bad) {
		t.Fatal("improper coloring accepted")
	}
	missing := toca.Assignment{0: 1, 1: 2, 2: 1}
	if Proper(adj, missing) {
		t.Fatal("partial coloring accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	adj := Adjacency{}
	if a := dsatur(adj); len(a) != 0 {
		t.Fatalf("DSATUR on empty = %v", a)
	}
	if a := Greedy(adj, nil); len(a) != 0 {
		t.Fatalf("Greedy on empty = %v", a)
	}
	if CountColors(nil) != 0 {
		t.Fatal("CountColors(nil) != 0")
	}
}

func TestIsolatedVertices(t *testing.T) {
	adj := Adjacency{1: nil, 2: nil, 3: nil}
	a := dsatur(adj)
	if !Proper(adj, a) || CountColors(a) != 1 {
		t.Fatalf("isolated vertices: %v", a)
	}
}

// TestGreedyColorBound: greedy never uses more than maxdegree+1 colors.
func TestGreedyColorBound(t *testing.T) {
	f := func(seed uint64) bool {
		adj := randomAdjacency(seed, 25, 0.35)
		maxDeg := 0
		for _, nbrs := range adj {
			if len(nbrs) > maxDeg {
				maxDeg = len(nbrs)
			}
		}
		for _, order := range [][]graph.NodeID{
			IdentityOrder(adj), LargestFirstOrder(adj), SmallestLastOrder(adj),
		} {
			a := Greedy(adj, order)
			if int(a.MaxColor()) > maxDeg+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
