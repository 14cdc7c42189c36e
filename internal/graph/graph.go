// Package graph implements the dynamic directed graph underlying the
// ad-hoc network model: nodes are mobiles, and an edge u -> v means v is
// within u's transmission range (v hears u).
//
// The structure supports incremental node and edge updates, queries over
// in- and out-neighborhoods, and BFS hop distances, all of which the
// recoding strategies and the distributed runtime need. Iteration-order
// determinism is provided by sorted-slice accessors so that simulations
// are bit-reproducible.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node (mobile) in the network.
type NodeID int

// nodeSet is a set of node IDs.
type nodeSet map[NodeID]struct{}

func (s nodeSet) sorted() []NodeID {
	out := make([]NodeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Digraph is a mutable directed graph. The zero value is not usable;
// construct with New.
type Digraph struct {
	out map[NodeID]nodeSet
	in  map[NodeID]nodeSet
	m   int // edge count
}

// New returns an empty directed graph.
func New() *Digraph {
	return &Digraph{
		out: make(map[NodeID]nodeSet),
		in:  make(map[NodeID]nodeSet),
	}
}

// AddNode inserts an isolated node. Adding an existing node is a no-op.
func (g *Digraph) AddNode(id NodeID) {
	if _, ok := g.out[id]; ok {
		return
	}
	g.out[id] = make(nodeSet)
	g.in[id] = make(nodeSet)
}

// RemoveNode deletes a node and all incident edges. Removing a missing
// node is a no-op.
func (g *Digraph) RemoveNode(id NodeID) {
	if _, ok := g.out[id]; !ok {
		return
	}
	for v := range g.out[id] {
		delete(g.in[v], id)
		g.m--
	}
	for u := range g.in[id] {
		delete(g.out[u], id)
		g.m--
	}
	delete(g.out, id)
	delete(g.in, id)
}

// HasNode reports whether id is present.
func (g *Digraph) HasNode(id NodeID) bool {
	_, ok := g.out[id]
	return ok
}

// AddEdge inserts the directed edge u -> v. Both endpoints must already
// exist and u must differ from v; violations panic because they indicate
// a bug in the network-maintenance layer, not a runtime condition.
func (g *Digraph) AddEdge(u, v NodeID) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	ou, ok := g.out[u]
	if !ok {
		panic(fmt.Sprintf("graph: AddEdge tail %d not in graph", u))
	}
	if _, ok := g.out[v]; !ok {
		panic(fmt.Sprintf("graph: AddEdge head %d not in graph", v))
	}
	if _, dup := ou[v]; dup {
		return
	}
	ou[v] = struct{}{}
	g.in[v][u] = struct{}{}
	g.m++
}

// RemoveEdge deletes the directed edge u -> v if present.
func (g *Digraph) RemoveEdge(u, v NodeID) {
	if ou, ok := g.out[u]; ok {
		if _, present := ou[v]; present {
			delete(ou, v)
			delete(g.in[v], u)
			g.m--
		}
	}
}

// HasEdge reports whether the directed edge u -> v exists.
func (g *Digraph) HasEdge(u, v NodeID) bool {
	ou, ok := g.out[u]
	if !ok {
		return false
	}
	_, present := ou[v]
	return present
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int { return g.m }

// Nodes returns all node IDs in ascending order.
func (g *Digraph) Nodes() []NodeID {
	return g.AppendNodes(make([]NodeID, 0, len(g.out)))
}

// AppendNodes appends all node IDs to dst in ascending order and returns
// the extended slice: Nodes into a caller-owned buffer, for hot paths
// that rebuild a node table every event.
func (g *Digraph) AppendNodes(dst []NodeID) []NodeID {
	start := len(dst)
	for id := range g.out {
		dst = append(dst, id)
	}
	slices.Sort(dst[start:])
	return dst
}

// OutNeighbors returns the nodes v with an edge id -> v, ascending.
func (g *Digraph) OutNeighbors(id NodeID) []NodeID {
	return g.out[id].sorted()
}

// InNeighbors returns the nodes u with an edge u -> id, ascending.
func (g *Digraph) InNeighbors(id NodeID) []NodeID {
	return g.in[id].sorted()
}

// OutDegree returns the number of out-edges of id.
func (g *Digraph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns the number of in-edges of id.
func (g *Digraph) InDegree(id NodeID) int { return len(g.in[id]) }

// ForEachOut calls fn for every out-neighbor of id, in unspecified order.
// It is the allocation-free companion of OutNeighbors for hot paths.
func (g *Digraph) ForEachOut(id NodeID, fn func(NodeID)) {
	for v := range g.out[id] {
		fn(v)
	}
}

// ForEachIn calls fn for every in-neighbor of id, in unspecified order.
func (g *Digraph) ForEachIn(id NodeID, fn func(NodeID)) {
	for u := range g.in[id] {
		fn(u)
	}
}

// Edges returns every directed edge as a (tail, head) pair, sorted by
// tail then head. Intended for tests and serialization.
func (g *Digraph) Edges() [][2]NodeID {
	edges := make([][2]NodeID, 0, g.m)
	for _, u := range g.Nodes() {
		for _, v := range g.out[u].sorted() {
			edges = append(edges, [2]NodeID{u, v})
		}
	}
	return edges
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := New()
	for id := range g.out {
		c.AddNode(id)
	}
	for u, ou := range g.out {
		for v := range ou {
			c.AddEdge(u, v)
		}
	}
	return c
}

// UndirectedNeighbors returns all nodes adjacent to id in either
// direction, ascending and without duplicates. This is the "1-hop
// neighborhood" used by the CP strategy's symmetric view.
func (g *Digraph) UndirectedNeighbors(id NodeID) []NodeID {
	seen := make(nodeSet, len(g.out[id])+len(g.in[id]))
	for v := range g.out[id] {
		seen[v] = struct{}{}
	}
	for u := range g.in[id] {
		seen[u] = struct{}{}
	}
	return seen.sorted()
}

// HopDistances returns BFS hop counts from src over the *undirected*
// version of the graph (communication reachability regardless of edge
// direction). Unreachable nodes are absent from the result. Used by the
// parallel-join safety check (two joins must be >= 5 hops apart).
func (g *Digraph) HopDistances(src NodeID) map[NodeID]int {
	dist := make(map[NodeID]int)
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		d := dist[u]
		visit := func(v NodeID) {
			if _, ok := dist[v]; !ok {
				dist[v] = d + 1
				queue = append(queue, v)
			}
		}
		for v := range g.out[u] {
			visit(v)
		}
		for v := range g.in[u] {
			visit(v)
		}
	}
	return dist
}

// WithinHops returns all nodes at undirected hop distance <= k from src,
// excluding src itself, in ascending order.
func (g *Digraph) WithinHops(src NodeID, k int) []NodeID {
	dist := g.HopDistances(src)
	out := make([]NodeID, 0, len(dist))
	for id, d := range dist {
		if id != src && d <= k {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxDegree returns the maximum of in- and out-degrees over all nodes
// (the parameter k in the paper's complexity analysis).
func (g *Digraph) MaxDegree() int {
	max := 0
	for id := range g.out {
		if d := len(g.out[id]); d > max {
			max = d
		}
		if d := len(g.in[id]); d > max {
			max = d
		}
	}
	return max
}

// Validate checks internal consistency (in/out mirrors agree, edge count
// matches). It returns an error describing the first inconsistency, or
// nil. Intended for tests.
func (g *Digraph) Validate() error {
	count := 0
	for u, ou := range g.out {
		for v := range ou {
			count++
			if _, ok := g.in[v][u]; !ok {
				return fmt.Errorf("graph: edge %d->%d missing from in-adjacency", u, v)
			}
		}
	}
	if count != g.m {
		return fmt.Errorf("graph: edge count %d != recorded %d", count, g.m)
	}
	for v, iv := range g.in {
		for u := range iv {
			if _, ok := g.out[u][v]; !ok {
				return fmt.Errorf("graph: edge %d->%d missing from out-adjacency", u, v)
			}
		}
	}
	return nil
}
