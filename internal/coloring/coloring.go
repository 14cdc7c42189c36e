// Package coloring implements the graph-coloring heuristics the paper's
// centralized baseline rests on: sequential greedy coloring over a given
// vertex order, the DSATUR heuristic of Brelaz [9], RLF, and
// smallest-last ordering. Colors are the positive integers of package
// toca. DSATUR and RLF color a Graph, an index-space adjacency that
// BuildConflict fills straight from a digraph's TOCA conflict relation;
// Adjacency, a map of neighbour lists, is the convenience input of the
// greedy orderings, the exact solver and tests, converted with
// FromAdjacency.
package coloring

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/graph"
	"repro/internal/toca"
)

// Adjacency is an undirected graph given as sorted neighbor lists.
type Adjacency map[graph.NodeID][]graph.NodeID

// nodesOf returns the vertex set ascending.
func nodesOf(adj Adjacency) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(adj))
	for id := range adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Greedy colors vertices in the given order, assigning each the lowest
// positive color unused by its already-colored neighbors. Vertices absent
// from order are left uncolored.
func Greedy(adj Adjacency, order []graph.NodeID) toca.Assignment {
	a := make(toca.Assignment, len(adj))
	used := toca.NewColorSet()
	for _, u := range order {
		used.Clear()
		for _, v := range adj[u] {
			used.Add(a[v])
		}
		a[u] = used.LowestFree()
	}
	return a
}

// IdentityOrder returns the vertices in ascending ID order.
func IdentityOrder(adj Adjacency) []graph.NodeID { return nodesOf(adj) }

// LargestFirstOrder returns vertices by decreasing degree (Welsh-Powell),
// ties broken by ascending ID.
func LargestFirstOrder(adj Adjacency) []graph.NodeID {
	order := nodesOf(adj)
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := len(adj[order[i]]), len(adj[order[j]])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	return order
}

// SmallestLastOrder returns the smallest-last ordering: repeatedly remove
// a minimum-degree vertex; the removal sequence reversed is the coloring
// order. Greedy coloring over this order uses at most degeneracy+1
// colors.
func SmallestLastOrder(adj Adjacency) []graph.NodeID {
	n := len(adj)
	deg := make(map[graph.NodeID]int, n)
	removed := make(map[graph.NodeID]bool, n)
	for id, nbrs := range adj {
		deg[id] = len(nbrs)
	}
	ids := nodesOf(adj)
	order := make([]graph.NodeID, n)
	for i := n - 1; i >= 0; i-- {
		// Pick the minimum-degree unremoved vertex, lowest ID on ties.
		var pick graph.NodeID
		best := -1
		for _, id := range ids {
			if removed[id] {
				continue
			}
			if best == -1 || deg[id] < best || (deg[id] == best && id < pick) {
				best = deg[id]
				pick = id
			}
		}
		removed[pick] = true
		order[i] = pick
		for _, v := range adj[pick] {
			if !removed[v] {
				deg[v]--
			}
		}
	}
	return order
}

// DSATUR is the Brelaz heuristic: repeatedly color the uncolored vertex
// of maximum saturation (number of distinct neighbour colors), breaking
// ties by higher degree then lower index (lower node ID), with the
// lowest available color. It holds the heuristic's scratch so repeated
// colorings reuse it; the zero value is ready to use.
type DSATUR struct {
	// seen holds one bitset per vertex, words uint64s each: bit c-1 is
	// set when an already-colored neighbour holds color c.
	seen []uint64
	// rank packs each uncolored vertex's choice order into one integer,
	// sat<<2*rankBits | degree<<rankBits | (n-1-index), so the next
	// vertex is simply the maximum; colored vertices hold -1.
	rank []int64
}

// rankBits is the width of the degree and index fields of a rank; a
// saturation is at most a degree, so all three fit below bit 63.
const rankBits = 21

// Color writes a DSATUR coloring of g into colors (len g.Len()). The
// vertex count and every degree must stay below 2^21.
func (d *DSATUR) Color(g *Graph, colors []toca.Color) {
	n := g.Len()
	maxDeg := 0
	for _, nbrs := range g.Adj {
		maxDeg = max(maxDeg, len(nbrs))
	}
	if max(n, maxDeg) >= 1<<rankBits {
		panic(fmt.Sprintf("coloring: DSATUR on %d vertices of degree up to %d, limit %d", n, maxDeg, 1<<rankBits-1))
	}
	// A vertex's saturation is at most its degree, so the color it takes
	// is at most maxDeg+1: bits 0..maxDeg cover every color in play.
	words := maxDeg/64 + 1
	if cap(d.seen) < n*words {
		d.seen = make([]uint64, n*words)
	}
	if cap(d.rank) < n {
		d.rank = make([]int64, n)
	}
	seen, rank := d.seen[:n*words], d.rank[:n]
	clear(seen)
	for i, nbrs := range g.Adj {
		rank[i] = int64(len(nbrs))<<rankBits | int64(n-1-i)
	}
	for range n {
		pick, best := 0, int64(-1)
		for i, r := range rank {
			if r > best {
				pick, best = i, r
			}
		}
		own := seen[pick*words : (pick+1)*words]
		w := 0
		for own[w] == math.MaxUint64 {
			w++
		}
		bit := bits.TrailingZeros64(^own[w])
		colors[pick] = toca.Color(w<<6 + bit + 1)
		rank[pick] = -1
		for _, v := range g.Adj[pick] {
			if rank[v] < 0 {
				continue
			}
			if word := &seen[int(v)*words+w]; *word&(1<<bit) == 0 {
				*word |= 1 << bit
				rank[v] += 1 << (2 * rankBits)
			}
		}
	}
}

// Proper reports whether a is a proper coloring of adj: every colored
// vertex differs from all of its colored neighbors, and every vertex of
// adj is colored.
func Proper(adj Adjacency, a toca.Assignment) bool {
	for u, nbrs := range adj {
		if a[u] == toca.None {
			return false
		}
		for _, v := range nbrs {
			if a[u] == a[v] {
				return false
			}
		}
	}
	return true
}

// CountColors returns the number of distinct colors used by a.
func CountColors(a toca.Assignment) int {
	seen := make(map[toca.Color]struct{})
	for _, c := range a {
		if c != toca.None {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}
