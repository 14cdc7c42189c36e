package coloring

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/toca"
)

// Graph is an undirected graph in index space, the form the heuristics
// color. Vertex i is node IDs[i], IDs ascending; Adj[i] lists the
// indices of i's neighbours in no particular order. Neighbour order
// never changes a heuristic's result: every choice it makes scans
// vertices by ascending index.
//
// A Graph is reusable: BuildConflict rebuilds it in place, keeping the
// storage of earlier builds, so a caller that recolors after every event
// allocates nothing once the buffers have grown to size.
type Graph struct {
	IDs []graph.NodeID
	Adj [][]int32

	// BuildConflict scratch: the node index, out-lists, and each
	// vertex's in-set as a bitset (words per vertex), followed by one
	// spare bitset for the row being built.
	index map[graph.NodeID]int32
	out   [][]int32
	in    []uint64
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.IDs) }

// Assignment returns colors (colors[i] is vertex i's) keyed by node ID.
func (g *Graph) Assignment(colors []toca.Color) toca.Assignment {
	a := make(toca.Assignment, len(g.IDs))
	for i, id := range g.IDs {
		a[id] = colors[i]
	}
	return a
}

// FromAdjacency converts adj to index space. Neighbour lists are kept as
// given, duplicates included, so vertex degrees match the map form. Every
// neighbour must itself be a vertex of adj.
func FromAdjacency(adj Adjacency) *Graph {
	g := &Graph{IDs: nodesOf(adj), Adj: make([][]int32, len(adj))}
	index := make(map[graph.NodeID]int32, len(adj))
	for i, id := range g.IDs {
		index[id] = int32(i)
	}
	for i, id := range g.IDs {
		lst := make([]int32, len(adj[id]))
		for k, v := range adj[id] {
			j, ok := index[v]
			if !ok {
				panic(fmt.Sprintf("coloring: neighbour %d of %d is not a vertex", v, id))
			}
			lst[k] = j
		}
		g.Adj[i] = lst
	}
	return g
}

// ColorAdjacency colors adj with c and returns the assignment keyed by
// node ID — the map-in, map-out convenience for callers that hold an
// Adjacency.
func ColorAdjacency(adj Adjacency, c func(*Graph, []toca.Color)) toca.Assignment {
	g := FromAdjacency(adj)
	colors := make([]toca.Color, g.Len())
	c(g, colors)
	return g.Assignment(colors)
}

// BuildConflict rebuilds g as the TOCA conflict graph C(d): u ~ v iff
// u->v, v->u, or u and v share an out-neighbour (toca.ConflictNeighbors,
// which toca.ConflictGraph materializes as the map-form reference). The
// relation is symmetric by construction, so each vertex's list is its
// conflict set as is.
//
// One pass over the digraph's out-sets yields out-lists in index space
// and each receiver's in-set as a bitset over indices. u's conflict set
// is then the union of in(u), out(u) and in(w) for every w in out(u):
// one word-wise OR per out-edge, n/64 words each, in place of a walk over
// every co-transmitter. On a Fig 10 network that is ~2 words against
// ~20 in-neighbours per out-edge. The bitsets take n*n/8 bytes, small
// beside the O(n^2) scan DSATUR makes over the same vertices.
func (g *Graph) BuildConflict(d *graph.Digraph) {
	g.IDs = d.AppendNodes(g.IDs[:0])
	n := len(g.IDs)
	if g.index == nil {
		g.index = make(map[graph.NodeID]int32, n)
	}
	clear(g.index)
	for i, id := range g.IDs {
		g.index[id] = int32(i)
	}
	words := (n + 63) / 64
	if cap(g.in) < n*words+words {
		g.in = make([]uint64, n*words+words)
	}
	in := g.in[:n*words]
	row := g.in[n*words : n*words+words]
	clear(in)
	g.out, g.Adj = resizeLists(g.out, n), resizeLists(g.Adj, n)
	for i, id := range g.IDs {
		out := g.out[i][:0]
		d.ForEachOut(id, func(v graph.NodeID) {
			j := g.index[v]
			out = append(out, j)
			in[int(j)*words+i/64] |= 1 << (i % 64)
		})
		g.out[i] = out
	}
	for u := range n {
		copy(row, in[u*words:(u+1)*words]) // CA1 on v->u
		for _, w := range g.out[u] {
			row[w/64] |= 1 << (w % 64) // CA1 on u->w
			for k, x := range in[int(w)*words : int(w+1)*words] {
				row[k] |= x // CA2 at w
			}
		}
		row[u/64] &^= 1 << (u % 64) // u is a co-transmitter at its own receivers
		lst := g.Adj[u][:0]
		for k, x := range row {
			for ; x != 0; x &= x - 1 {
				lst = append(lst, int32(k*64+bits.TrailingZeros64(x)))
			}
		}
		g.Adj[u] = lst
	}
}

// resizeLists returns s with length n, keeping the backing arrays of the
// lists it already holds so they can be refilled in place.
func resizeLists(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]int32, n-cap(s))...)
	}
	return s[:n]
}
