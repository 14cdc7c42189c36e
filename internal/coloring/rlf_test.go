package coloring

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/toca"
	"repro/internal/xrand"
)

func TestRLFProperOnRandom(t *testing.T) {
	f := func(seed uint64) bool {
		adj := randomAdjacency(seed, 25, 0.3)
		return Proper(adj, rlf(adj))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRLFKnownStructures(t *testing.T) {
	for n := 1; n <= 7; n++ {
		adj := clique(n)
		a := rlf(adj)
		if !Proper(adj, a) || CountColors(a) != n {
			t.Fatalf("K_%d: %d colors, proper=%v", n, CountColors(a), Proper(adj, a))
		}
	}
	even := cycle(8)
	if a := rlf(even); CountColors(a) != 2 || !Proper(even, a) {
		t.Fatalf("even cycle: %d colors", CountColors(rlf(even)))
	}
	odd := cycle(9)
	if a := rlf(odd); CountColors(a) != 3 || !Proper(odd, a) {
		t.Fatalf("odd cycle: %d colors", CountColors(rlf(odd)))
	}
	bip := completeBipartite(4, 6)
	if a := rlf(bip); CountColors(a) != 2 || !Proper(bip, a) {
		t.Fatalf("K_4,6: %d colors", CountColors(rlf(bip)))
	}
}

func TestRLFEmptyAndIsolated(t *testing.T) {
	if a := rlf(Adjacency{}); len(a) != 0 {
		t.Fatalf("empty = %v", a)
	}
	iso := Adjacency{1: nil, 2: nil}
	if a := rlf(iso); CountColors(a) != 1 || !Proper(iso, a) {
		t.Fatalf("isolated = %v", rlf(iso))
	}
}

// TestRLFCompetitiveWithDSATUR: on random instances RLF stays within one
// color of DSATUR on average (usually matching or beating it on dense
// graphs).
func TestRLFCompetitiveWithDSATUR(t *testing.T) {
	rng := xrand.New(88)
	totalRLF, totalDSATUR := 0, 0
	const trials = 30
	for i := 0; i < trials; i++ {
		adj := randomAdjacency(rng.Uint64(), 30, 0.4)
		totalRLF += CountColors(rlf(adj))
		totalDSATUR += CountColors(dsatur(adj))
	}
	if totalRLF > totalDSATUR+trials {
		t.Fatalf("RLF total %d vs DSATUR %d — more than one extra color per instance",
			totalRLF, totalDSATUR)
	}
}

func TestOrderByColorClassSize(t *testing.T) {
	a := toca.Assignment{1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 3}
	order := OrderByColorClassSize(a)
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// Class 1 (size 3) first, then class 3 (size 2), then class 2.
	classOf := func(id graph.NodeID) toca.Color { return a[id] }
	if classOf(order[0]) != 1 || classOf(order[3]) != 3 || classOf(order[5]) != 2 {
		t.Fatalf("order = %v", order)
	}
}
