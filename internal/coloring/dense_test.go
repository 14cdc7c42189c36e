package coloring

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/toca"
	"repro/internal/xrand"
)

func dsatur(adj Adjacency) toca.Assignment { return ColorAdjacency(adj, new(DSATUR).Color) }
func rlf(adj Adjacency) toca.Assignment    { return ColorAdjacency(adj, RLF) }

// geometricDigraph places n nodes uniformly in a 100x100 arena with
// ranges uniform in [minR, maxR]: u->v when v is within u's range, the
// paper's network model.
func geometricDigraph(seed uint64, n int, minR, maxR float64) *graph.Digraph {
	rng := xrand.New(seed)
	type node struct{ x, y, r float64 }
	nodes := make([]node, n)
	g := graph.New()
	for i := range nodes {
		nodes[i] = node{rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(minR, maxR)}
		g.AddNode(graph.NodeID(3 * i)) // sparse IDs: index != ID
	}
	for i, u := range nodes {
		for j, v := range nodes {
			if dx, dy := u.x-v.x, u.y-v.y; i != j && dx*dx+dy*dy <= u.r*u.r {
				g.AddEdge(graph.NodeID(3*i), graph.NodeID(3*j))
			}
		}
	}
	return g
}

// differentialCases returns named graphs for the dense-vs-reference
// comparisons: conflict graphs of random geometric networks from sparse
// to near-complete, plus cliques, cycles, bipartite graphs, isolated
// vertices, random graphs and the empty graph.
func differentialCases() map[string]Adjacency {
	cases := map[string]Adjacency{
		"empty":    {},
		"isolated": {1: nil, 5: nil, 9: nil},
		"K1":       clique(1),
		"K2":       clique(2),
		"K9":       clique(9),
		"C4":       cycle(4),
		"C9":       cycle(9),
		"C10":      cycle(10),
		"K3,5":     completeBipartite(3, 5),
		"star":     completeBipartite(1, 8),
	}
	cliquePlusIsolated := clique(6)
	for id := graph.NodeID(10); id < 14; id++ {
		cliquePlusIsolated[id] = nil
	}
	cases["K6+isolated"] = cliquePlusIsolated
	for i, n := range []int{1, 2, 10, 40, 100, 120} {
		for _, r := range [][2]float64{{5, 10}, {20.5, 30.5}, {60, 90}} {
			g := geometricDigraph(uint64(7*i+1), n, r[0], r[1])
			cases[fmt.Sprintf("geometric n=%d r=%v", n, r)] = Adjacency(toca.ConflictGraph(g))
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		cases[fmt.Sprintf("random %d", seed)] = randomAdjacency(seed, 30, 0.3)
	}
	return cases
}

// TestDenseMatchesReference: the dense DSATUR and RLF produce exactly
// the reference map-based heuristics' assignments.
func TestDenseMatchesReference(t *testing.T) {
	for name, adj := range differentialCases() {
		if got, want := dsatur(adj), dsaturRef(adj); !maps.Equal(got, want) {
			t.Errorf("%s: DSATUR %v, reference %v", name, got, want)
		}
		if got, want := rlf(adj), rlfRef(adj); !maps.Equal(got, want) {
			t.Errorf("%s: RLF %v, reference %v", name, got, want)
		}
	}
}

// TestBuildConflictMatchesConflictGraph rebuilds one Graph over a
// sequence of networks that grow and shrink, so stale buffer contents
// from a larger earlier build would show: every build must hold exactly
// toca.ConflictGraph's vertices and neighbour sets.
func TestBuildConflictMatchesConflictGraph(t *testing.T) {
	var g Graph
	var ds DSATUR
	for step, n := range []int{40, 100, 10, 0, 1, 120, 60, 100} {
		d := geometricDigraph(uint64(100+step), n, 20.5, 30.5+float64(step)*5)
		g.BuildConflict(d)
		want := toca.ConflictGraph(d)
		if !slices.Equal(g.IDs, d.Nodes()) {
			t.Fatalf("step %d: IDs %v, want %v", step, g.IDs, d.Nodes())
		}
		for i, id := range g.IDs {
			got := make([]graph.NodeID, len(g.Adj[i]))
			for k, j := range g.Adj[i] {
				got[k] = g.IDs[j]
			}
			slices.Sort(got)
			if !slices.Equal(got, want[id]) {
				t.Fatalf("step %d node %d: conflict set %v, want %v", step, id, got, want[id])
			}
		}
		colors := make([]toca.Color, g.Len())
		ds.Color(&g, colors)
		if got, ref := g.Assignment(colors), dsaturRef(want); !maps.Equal(got, ref) {
			t.Fatalf("step %d: DSATUR on the built graph %v, reference %v", step, got, ref)
		}
	}
}
