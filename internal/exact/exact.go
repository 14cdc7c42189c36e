// Package exact computes optimal TOCA colorings on small networks by
// branch-and-bound over the conflict graph. The paper calls BBB
// "near-optimal" without quantifying; this solver provides the ground
// truth (the chromatic number of C(G)) so tests and experiments can
// measure each heuristic's optimality gap exactly.
//
// The search orders vertices by a DSATUR-style most-constrained-first
// rule, seeds the upper bound with the DSATUR heuristic, prunes with a
// greedy clique lower bound, and caps new-color introduction by symmetry
// (a vertex may open at most one color beyond those already used).
// Practical to ~60 vertices of the paper's conflict-graph densities.
package exact

import (
	"fmt"
	"sort"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/toca"
)

// Result is the outcome of an exact coloring run.
type Result struct {
	Colors     int             // chromatic number of the conflict graph
	Assignment toca.Assignment // one optimal coloring
	Nodes      int
	Complete   bool // false if the node budget was exhausted
	Steps      int  // search nodes expanded
}

// ChromaticNumber finds an optimal coloring of the undirected graph adj.
// maxSteps bounds the search (0 = no bound); if exhausted, the result
// carries the best coloring found so far and Complete = false.
func ChromaticNumber(adj coloring.Adjacency, maxSteps int) Result {
	n := len(adj)
	if n == 0 {
		return Result{Complete: true, Assignment: toca.Assignment{}}
	}

	// Vertex order: DSATUR-like static order (largest degree first) with
	// dynamic saturation handled during search via most-constrained
	// selection.
	ids := make([]graph.NodeID, 0, n)
	for id := range adj {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := len(adj[ids[i]]), len(adj[ids[j]])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})

	// Upper bound: DSATUR heuristic.
	best := coloring.ColorAdjacency(adj, new(coloring.DSATUR).Color)
	bestK := coloring.CountColors(best)

	// Lower bound: greedy clique from the densest vertex.
	lower := greedyCliqueSize(adj, ids)
	if lower == bestK {
		return Result{
			Colors: bestK, Assignment: best, Nodes: n, Complete: true,
		}
	}

	cur := make(toca.Assignment, n)
	res := Result{Colors: bestK, Assignment: best.Clone(), Nodes: n, Complete: true}
	steps := 0

	var solve func(colored int, usedK int) bool // returns true if budget blown
	solve = func(colored, usedK int) bool {
		if maxSteps > 0 && steps > maxSteps {
			res.Complete = false
			return true
		}
		steps++
		if usedK >= res.Colors {
			return false // cannot beat the incumbent
		}
		if colored == n {
			res.Colors = usedK
			res.Assignment = cur.Clone()
			return false
		}
		// Most-constrained uncolored vertex (max distinct neighbor
		// colors, tie on degree).
		var pick graph.NodeID
		bestSat, bestDeg := -1, -1
		for _, id := range ids {
			if cur[id] != toca.None {
				continue
			}
			sat := distinctNeighborColors(adj, cur, id)
			deg := len(adj[id])
			if sat > bestSat || (sat == bestSat && deg > bestDeg) {
				bestSat, bestDeg, pick = sat, deg, id
			}
		}
		// Try existing colors, then one fresh color (symmetry cap).
		forbidden := make(map[toca.Color]bool)
		for _, v := range adj[pick] {
			if c := cur[v]; c != toca.None {
				forbidden[c] = true
			}
		}
		for c := toca.Color(1); int(c) <= usedK; c++ {
			if forbidden[c] {
				continue
			}
			cur[pick] = c
			if solve(colored+1, usedK) {
				return true
			}
			cur[pick] = toca.None
		}
		if usedK+1 < res.Colors {
			cur[pick] = toca.Color(usedK + 1)
			if solve(colored+1, usedK+1) {
				return true
			}
			cur[pick] = toca.None
		}
		return false
	}
	solve(0, 0)
	res.Steps = steps
	return res
}

// distinctNeighborColors counts the saturation of a vertex.
func distinctNeighborColors(adj coloring.Adjacency, cur toca.Assignment, id graph.NodeID) int {
	seen := make(map[toca.Color]bool)
	for _, v := range adj[id] {
		if c := cur[v]; c != toca.None {
			seen[c] = true
		}
	}
	return len(seen)
}

// greedyCliqueSize grows a clique greedily from the first vertices in
// order, returning its size — a cheap chromatic lower bound.
func greedyCliqueSize(adj coloring.Adjacency, order []graph.NodeID) int {
	var clique []graph.NodeID
	for _, cand := range order {
		ok := true
		for _, m := range clique {
			if !isAdjacent(adj, cand, m) {
				ok = false
				break
			}
		}
		if ok {
			clique = append(clique, cand)
		}
	}
	return len(clique)
}

func isAdjacent(adj coloring.Adjacency, u, v graph.NodeID) bool {
	nbrs := adj[u]
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Gap reports a heuristic coloring's excess over the optimum for the
// same graph: heuristicColors - chromaticNumber. It errors if the exact
// search was incomplete.
func Gap(adj coloring.Adjacency, heuristic toca.Assignment, maxSteps int) (int, error) {
	res := ChromaticNumber(adj, maxSteps)
	if !res.Complete {
		return 0, fmt.Errorf("exact: search budget exhausted after %d steps", res.Steps)
	}
	return coloring.CountColors(heuristic) - res.Colors, nil
}
