package coloring

// The map-based DSATUR and RLF the dense heuristics replaced, kept as
// the references the differential tests compare against: same choices,
// same tie-breaks, over an Adjacency.

import (
	"repro/internal/graph"
	"repro/internal/toca"
)

// dsaturRef colors the graph with the Brelaz heuristic: repeatedly color the
// uncolored vertex of maximum saturation (number of distinct neighbor
// colors), breaking ties by higher degree then lower ID, with the lowest
// available color.
func dsaturRef(adj Adjacency) toca.Assignment {
	n := len(adj)
	a := make(toca.Assignment, n)
	satSets := make(map[graph.NodeID]toca.ColorSet, n)
	ids := nodesOf(adj)
	for _, id := range ids {
		satSets[id] = toca.NewColorSet()
	}
	for done := 0; done < n; done++ {
		var pick graph.NodeID
		bestSat, bestDeg := -1, -1
		for _, id := range ids {
			if a[id] != toca.None {
				continue
			}
			sat, deg := satSets[id].Len(), len(adj[id])
			if sat > bestSat || (sat == bestSat && deg > bestDeg) {
				bestSat, bestDeg, pick = sat, deg, id
			}
		}
		c := satSets[pick].LowestFree()
		a[pick] = c
		for _, v := range adj[pick] {
			if a[v] == toca.None {
				satSets[v].Add(c)
			}
		}
	}
	return a
}

// rlfRef colors the graph with the Recursive Largest First heuristic
// (Leighton): colors are built one class at a time. Each class starts
// from the uncolored vertex with the most uncolored neighbors, then
// greedily absorbs the candidate with the most neighbors *outside* the
// remaining candidate set (maximizing how much of the class's
// "forbidden zone" is reused), until no candidate remains.
//
// RLF typically uses slightly fewer colors than DSATUR on dense graphs
// at a higher constant cost; it is offered as an alternative heuristic
// for the BBB baseline's recoloring step.
func rlfRef(adj Adjacency) toca.Assignment {
	n := len(adj)
	a := make(toca.Assignment, n)
	uncolored := make(map[graph.NodeID]struct{}, n)
	for id := range adj {
		uncolored[id] = struct{}{}
	}

	neighbors := func(id graph.NodeID, in map[graph.NodeID]struct{}) int {
		count := 0
		for _, v := range adj[id] {
			if _, ok := in[v]; ok {
				count++
			}
		}
		return count
	}

	// Deterministic candidate iteration order.
	sortedIDs := nodesOf(adj)

	for c := toca.Color(1); len(uncolored) > 0; c++ {
		// Candidates for this class: all uncolored vertices.
		candidates := make(map[graph.NodeID]struct{}, len(uncolored))
		for id := range uncolored {
			candidates[id] = struct{}{}
		}
		// Seed: candidate with most uncolored neighbors.
		var seed graph.NodeID
		bestDeg := -1
		for _, id := range sortedIDs {
			if _, ok := candidates[id]; !ok {
				continue
			}
			if d := neighbors(id, uncolored); d > bestDeg {
				bestDeg = d
				seed = id
			}
		}
		class := []graph.NodeID{seed}
		removeWithNeighborsRef(candidates, adj, seed)

		// Absorb: candidate maximizing neighbors outside the candidate
		// set (i.e., already excluded by the class), ties by fewest
		// neighbors inside, then lowest ID.
		for len(candidates) > 0 {
			var pick graph.NodeID
			bestOut, bestIn := -1, 1<<30
			for _, id := range sortedIDs {
				if _, ok := candidates[id]; !ok {
					continue
				}
				out := len(adj[id]) - neighbors(id, candidates)
				in := neighbors(id, candidates)
				if out > bestOut || (out == bestOut && in < bestIn) {
					bestOut, bestIn, pick = out, in, id
				}
			}
			class = append(class, pick)
			removeWithNeighborsRef(candidates, adj, pick)
		}
		for _, id := range class {
			a[id] = c
			delete(uncolored, id)
		}
	}
	return a
}

// removeWithNeighborsRef deletes id and all its neighbors from set.
func removeWithNeighborsRef(set map[graph.NodeID]struct{}, adj Adjacency, id graph.NodeID) {
	delete(set, id)
	for _, v := range adj[id] {
		delete(set, v)
	}
}
