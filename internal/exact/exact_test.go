package exact

import (
	"testing"

	"repro/internal/adhoc"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/toca"
	"repro/internal/xrand"
)

// knownGraphs: structures with known chromatic numbers.
func clique(n int) coloring.Adjacency {
	adj := make(coloring.Adjacency, n)
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

func cycle(n int) coloring.Adjacency {
	adj := make(coloring.Adjacency, n)
	for i := 0; i < n; i++ {
		u := graph.NodeID(i)
		adj[u] = []graph.NodeID{graph.NodeID((i + 1) % n), graph.NodeID((i + n - 1) % n)}
	}
	return adj
}

// petersen returns the Petersen graph (chromatic number 3).
func petersen() coloring.Adjacency {
	adj := make(coloring.Adjacency, 10)
	add := func(a, b int) {
		u, v := graph.NodeID(a), graph.NodeID(b)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for i := 0; i < 5; i++ {
		add(i, (i+1)%5)     // outer 5-cycle
		add(i, i+5)         // spokes
		add(i+5, (i+2)%5+5) // inner pentagram
	}
	return adj
}

func TestKnownChromaticNumbers(t *testing.T) {
	cases := []struct {
		name string
		adj  coloring.Adjacency
		want int
	}{
		{"K1", clique(1), 1},
		{"K4", clique(4), 4},
		{"K7", clique(7), 7},
		{"C6 (even cycle)", cycle(6), 2},
		{"C7 (odd cycle)", cycle(7), 3},
		{"Petersen", petersen(), 3},
	}
	for _, c := range cases {
		res := ChromaticNumber(c.adj, 0)
		if !res.Complete {
			t.Fatalf("%s: incomplete", c.name)
		}
		if res.Colors != c.want {
			t.Fatalf("%s: chromatic number %d, want %d", c.name, res.Colors, c.want)
		}
		if !coloring.Proper(c.adj, res.Assignment) {
			t.Fatalf("%s: assignment improper", c.name)
		}
		if coloring.CountColors(res.Assignment) != c.want {
			t.Fatalf("%s: assignment uses %d colors", c.name, coloring.CountColors(res.Assignment))
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	res := ChromaticNumber(coloring.Adjacency{}, 0)
	if !res.Complete || res.Colors != 0 {
		t.Fatalf("empty = %+v", res)
	}
}

func TestIsolatedVertices(t *testing.T) {
	adj := coloring.Adjacency{1: nil, 2: nil, 3: nil}
	res := ChromaticNumber(adj, 0)
	if res.Colors != 1 {
		t.Fatalf("isolated vertices: %d colors", res.Colors)
	}
}

// TestNeverExceedsDSATUR: the exact optimum is at most the heuristic.
func TestNeverExceedsDSATUR(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 20; trial++ {
		adj := randomConflictGraph(t, rng.Uint64(), 5+rng.Intn(20))
		res := ChromaticNumber(adj, 0)
		if !res.Complete {
			t.Fatalf("trial %d: incomplete", trial)
		}
		d := coloring.CountColors(coloring.ColorAdjacency(adj, new(coloring.DSATUR).Color))
		if res.Colors > d {
			t.Fatalf("trial %d: exact %d > DSATUR %d", trial, res.Colors, d)
		}
		if !coloring.Proper(adj, res.Assignment) {
			t.Fatalf("trial %d: improper optimal coloring", trial)
		}
	}
}

// TestDSATURGapOnPaperWorkloads: on the paper's random geometries the
// DSATUR heuristic (our BBB substitute) stays within a couple of colors
// of optimal — the "near-optimal" property the paper attributes to BBB.
func TestDSATURGapOnPaperWorkloads(t *testing.T) {
	rng := xrand.New(6)
	worst := 0
	for trial := 0; trial < 10; trial++ {
		adj := randomConflictGraph(t, rng.Uint64(), 25)
		gap, err := Gap(adj, coloring.ColorAdjacency(adj, new(coloring.DSATUR).Color), 5_000_000)
		if err != nil {
			t.Skipf("trial %d: %v", trial, err)
		}
		if gap < 0 {
			t.Fatalf("trial %d: negative gap %d", trial, gap)
		}
		if gap > worst {
			worst = gap
		}
	}
	if worst > 2 {
		t.Fatalf("DSATUR gap reached %d colors on 25-node conflict graphs", worst)
	}
}

// TestMinimGapAfterJoins: the Minim join sequence also lands close to
// the optimum on small networks (the Fig 10(a) claim, quantified).
func TestMinimGapAfterJoins(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 5; trial++ {
		r := core.New()
		n := 18 + rng.Intn(8)
		for i := 0; i < n; i++ {
			cfg := adhoc.Config{
				Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
				Range: rng.Uniform(20.5, 30.5),
			}
			if _, err := r.Join(graph.NodeID(i), cfg); err != nil {
				t.Fatal(err)
			}
		}
		adj := coloring.Adjacency(toca.ConflictGraph(r.Network().Graph()))
		res := ChromaticNumber(adj, 5_000_000)
		if !res.Complete {
			t.Skipf("trial %d: search budget exhausted", trial)
		}
		used := int(r.Assignment().MaxColor())
		if used < res.Colors {
			t.Fatalf("trial %d: Minim used %d < chromatic number %d (impossible)",
				trial, used, res.Colors)
		}
		if used > res.Colors+5 {
			t.Fatalf("trial %d: Minim used %d vs optimal %d — gap too large", trial, used, res.Colors)
		}
	}
}

func TestStepBudget(t *testing.T) {
	// A hard instance with a tiny budget must report incompleteness but
	// still return a proper coloring (the DSATUR incumbent).
	rng := xrand.New(8)
	adj := randomConflictGraph(t, rng.Uint64(), 30)
	res := ChromaticNumber(adj, 1)
	if !coloring.Proper(adj, res.Assignment) {
		t.Fatal("budgeted result improper")
	}
	// Complete may legitimately be true if bounds closed instantly;
	// force a case where they cannot: odd cycle needs search.
	res = ChromaticNumber(cycle(9), 1)
	if !coloring.Proper(cycle(9), res.Assignment) {
		t.Fatal("budgeted cycle result improper")
	}
}

func TestGapIncomplete(t *testing.T) {
	rng := xrand.New(9)
	adj := randomConflictGraph(t, rng.Uint64(), 40)
	// Check Gap's error path with an absurdly small budget — unless the
	// bounds close immediately, in which case the gap must be >= 0.
	gap, err := Gap(adj, coloring.ColorAdjacency(adj, new(coloring.DSATUR).Color), 1)
	if err == nil && gap < 0 {
		t.Fatalf("gap = %d", gap)
	}
}

// randomConflictGraph builds the conflict graph of a random geometric
// network.
func randomConflictGraph(t *testing.T, seed uint64, n int) coloring.Adjacency {
	t.Helper()
	rng := xrand.New(seed)
	net := adhoc.New()
	for i := 0; i < n; i++ {
		cfg := adhoc.Config{
			Pos:   geom.Point{X: rng.Uniform(0, 100), Y: rng.Uniform(0, 100)},
			Range: rng.Uniform(20.5, 30.5),
		}
		if err := net.Join(graph.NodeID(i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	return coloring.Adjacency(toca.ConflictGraph(net.Graph()))
}
