package bbb

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// steadyAllocs builds a Fig 10 network (N=100) with ranges scaled by
// rangeScale, hosts BBB on it, and returns the edge count and the
// allocations of one OnDelta once the reused buffers have grown.
func steadyAllocs(t *testing.T, rangeScale float64) (edges int, allocs float64) {
	t.Helper()
	p := workload.Defaults()
	p.MinR *= rangeScale
	p.MaxR *= rangeScale
	eng := engine.New()
	s := NewShared(eng.Network())
	eng.Subscribe(s)
	if err := eng.ApplyAll(workload.JoinScript(10, p)); err != nil {
		t.Fatal(err)
	}
	cfg, _ := eng.Network().Config(0)
	d := engine.Delta{Event: strategy.MoveEvent(0, cfg.Pos)}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := s.OnDelta(d); err != nil {
			t.Fatal(err)
		}
	})
	return eng.Network().Graph().NumEdges(), allocs
}

// maxOnDeltaAllocs is the measured allocation count of a steady-state
// OnDelta on go1.24: the returned maps alone, a 100-entry Assignment
// (4) and an empty Recoded map (1). The conflict graph, DSATUR scratch
// and color buffer are all reused.
const maxOnDeltaAllocs = 5

// TestOnDeltaSteadyStateAllocs: recoloring allocates only the maps it
// returns, however dense the network. Doubling the ranges nearly triples
// the edge count and must not add an allocation.
func TestOnDeltaSteadyStateAllocs(t *testing.T) {
	sparseEdges, sparse := steadyAllocs(t, 1)
	denseEdges, dense := steadyAllocs(t, 2)
	if sparse > maxOnDeltaAllocs || dense > maxOnDeltaAllocs {
		t.Fatalf("OnDelta allocates %v (%d edges) and %v (%d edges) times, want <= %d",
			sparse, sparseEdges, dense, denseEdges, maxOnDeltaAllocs)
	}
	if dense != sparse {
		t.Fatalf("OnDelta allocations grow with edge count: %v at %d edges, %v at %d",
			sparse, sparseEdges, dense, denseEdges)
	}
}
