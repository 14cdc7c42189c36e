package coloring_test

// This BBB test lives beside the reference DSATUR (reference_test.go)
// so the dense recoloring path is checked against the map-based
// original, not against itself.

import (
	"maps"
	"testing"

	"repro/internal/bbb"
	"repro/internal/coloring"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/workload"
)

// TestBBBMatchesReferenceDSATUR drives BBB standalone (New) and
// engine-hosted (NewShared) through churn scripts with all four event
// kinds. After every event both must hold exactly the reference DSATUR
// coloring of toca.ConflictGraph, report as recoded exactly the nodes
// whose color differs from the previous event's reference coloring, and
// report its max color.
func TestBBBMatchesReferenceDSATUR(t *testing.T) {
	mix := workload.ChurnWeights{Join: 1, Leave: 1, Move: 3, Power: 2}
	for _, c := range []struct {
		seed     uint64
		n, steps int
	}{{seed: 1, n: 100, steps: 150}, {seed: 2, n: 30, steps: 300}} {
		p := workload.Defaults()
		p.N = c.n
		events := workload.Churn(c.seed, p, c.steps, mix)
		kinds := make(map[strategy.EventKind]bool)
		for _, ev := range events[p.N:] {
			kinds[ev.Kind] = true
		}
		if len(kinds) != 4 {
			t.Fatalf("seed %d: churn script covers event kinds %v, want all four", c.seed, kinds)
		}

		standalone := bbb.New()
		eng := engine.New()
		hosted := bbb.NewShared(eng.Network())
		eng.Subscribe(hosted)
		prev := toca.Assignment{}
		for i, ev := range events {
			sOut, err := standalone.Apply(ev)
			if err != nil {
				t.Fatalf("seed %d event %d: standalone: %v", c.seed, i, err)
			}
			hOuts, err := eng.Apply(ev)
			if err != nil {
				t.Fatalf("seed %d event %d: hosted: %v", c.seed, i, err)
			}
			want := coloring.DSATURRef(toca.ConflictGraph(eng.Network().Graph()))
			wantRecoded := make(map[graph.NodeID]toca.Color)
			for id, col := range want {
				if prev[id] != col {
					wantRecoded[id] = col
				}
			}
			for _, lane := range []struct {
				name string
				out  strategy.Outcome
				s    *bbb.Strategy
			}{{"standalone", sOut, standalone}, {"hosted", hOuts[0], hosted}} {
				if !maps.Equal(lane.s.Assignment(), want) {
					t.Fatalf("seed %d event %d (%v): %s assignment differs from reference DSATUR",
						c.seed, i, ev.Kind, lane.name)
				}
				if !maps.Equal(lane.out.Recoded, wantRecoded) {
					t.Fatalf("seed %d event %d (%v): %s recoded %v, want %v",
						c.seed, i, ev.Kind, lane.name, lane.out.Recoded, wantRecoded)
				}
				if lane.out.MaxColor != want.MaxColor() {
					t.Fatalf("seed %d event %d (%v): %s max color %d, want %d",
						c.seed, i, ev.Kind, lane.name, lane.out.MaxColor, want.MaxColor())
				}
			}
			prev = want
		}
	}
}
