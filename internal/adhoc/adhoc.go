// Package adhoc implements the power-controlled ad-hoc network model of
// the paper's section 2: each node has a position and a maximum
// transmission range, and the induced communication digraph contains the
// edge u -> v exactly when v lies within u's range.
//
// The Network maintains the induced digraph incrementally under the four
// reconfiguration events the paper studies — join, leave, move, and power
// (range) change — and computes the partition sets 1n/2n/3n/4n of Fig 2
// that the recoding strategies operate on.
//
// Since the engine refactor the spatial grid is on by default: New()
// returns a self-indexing network whose grid cell auto-sizes to the
// largest transmission range seen so far, so neighbor scans are local
// from the first join. NewScan() keeps the naive O(n) scan path alive as
// a fallback and as the differential-testing oracle the equivalence
// tests replay against.
package adhoc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/spatial"
	"repro/internal/toca"
)

// Config is a node's physical configuration: its position and maximum
// transmission power range.
type Config struct {
	Pos   geom.Point
	Range float64
}

// Covers reports whether a transmitter with configuration c reaches a
// receiver at position p (the paper's d_ij <= r_i test).
func (c Config) Covers(p geom.Point) bool {
	return c.Pos.DistanceSqTo(p) <= c.Range*c.Range
}

// gridGrowFactor bounds how far the monotone max range may outgrow the
// auto-sized grid cell before the grid is rebuilt with cell = maxRange.
// Queries stay correct at any ratio (the grid scans every overlapped
// cell); the rebuild only restores the at-most-9-cells locality.
const gridGrowFactor = 2.0

// Network is a dynamic power-controlled ad-hoc network: a set of node
// configurations plus the induced communication digraph.
//
// A uniform spatial grid accelerates the neighbor scans every event
// performs: candidate nodes come from cells within
// max(event range, largest range ever seen) of the event position rather
// than from the whole node set. Results are identical to the naive scan
// (the grid is a pure accelerator; equivalence is property-tested).
type Network struct {
	configs map[graph.NodeID]Config
	g       *graph.Digraph
	grid    *spatial.Grid // nil = naive O(n) scans (NewScan, or no positive range yet)
	// autoGrid makes the grid self-sizing: it is (re)built from maxRange
	// as ranges are first seen or outgrow the current cell.
	autoGrid bool
	// maxRange is a monotone upper bound on every range ever present;
	// it bounds how far an in-edge can originate, so grid queries with
	// this radius see every potential coverer. It never shrinks (a node
	// with a huge range leaving degrades query locality, not
	// correctness).
	maxRange float64
	// twoHop caches WithinTwoHops results and conflict caches
	// ConflictNeighbors results. Entries are invalidated by the
	// dirty-ball rule: any event on node id invalidates the 2-hop ball
	// around id in both the pre- and post-event graph, which covers every
	// node whose 2-hop set — and a fortiori whose conflict set, a subset
	// of it — an incident edge flip can change.
	twoHop   map[graph.NodeID][]graph.NodeID
	conflict map[graph.NodeID]map[graph.NodeID]struct{}
}

// New returns an empty network with the spatial grid enabled and
// self-sizing (the default since the engine refactor). The grid cell
// tracks the largest transmission range seen so far; until a positive
// range is noted the network scans naively.
func New() *Network {
	n := NewScan()
	n.autoGrid = true
	return n
}

// NewScan returns an empty network using naive O(n) neighbor scans. It
// is the fallback path and the oracle the grid is differentially tested
// against.
func NewScan() *Network {
	return &Network{
		configs:  make(map[graph.NodeID]Config),
		g:        graph.New(),
		twoHop:   make(map[graph.NodeID][]graph.NodeID),
		conflict: make(map[graph.NodeID]map[graph.NodeID]struct{}),
	}
}

// NewIndexed returns an empty network whose neighbor scans use a uniform
// spatial grid with the given fixed cell size (a good choice is the
// expected maximum transmission range). It panics on a non-positive cell
// size — that is a programmer error, not a runtime condition.
func NewIndexed(cellSize float64) *Network {
	grid, err := spatial.NewGrid(cellSize)
	if err != nil {
		panic(fmt.Sprintf("adhoc: %v", err))
	}
	n := NewScan()
	n.grid = grid
	return n
}

// Indexed reports whether neighbor scans currently use the spatial grid.
func (n *Network) Indexed() bool { return n.grid != nil }

// candidates calls fn for every node other than id that could have an
// edge to or from a node at pos with the given range: with a grid, nodes
// within max(r, maxRange) of pos; without, every node.
func (n *Network) candidates(id graph.NodeID, pos geom.Point, r float64, fn func(graph.NodeID, Config)) {
	if n.grid == nil {
		for other, oc := range n.configs {
			if other != id {
				fn(other, oc)
			}
		}
		return
	}
	radius := r
	if n.maxRange > radius {
		radius = n.maxRange
	}
	n.grid.ForEachWithinRadius(pos, radius, func(other graph.NodeID, _ geom.Point) {
		if other != id {
			fn(other, n.configs[other])
		}
	})
}

// noteRange folds a new range into the monotone maximum and, in autoGrid
// mode, builds or rebuilds the grid when the maximum outgrows the cell.
// The comparison direction is NaN-robust: a NaN never overwrites the
// maximum (and the event methods reject non-finite ranges up front).
func (n *Network) noteRange(r float64) {
	if !(r > n.maxRange) {
		return
	}
	n.maxRange = r
	if !n.autoGrid || n.maxRange <= 0 {
		return
	}
	if n.grid == nil || n.maxRange > gridGrowFactor*n.grid.CellSize() {
		n.regrid(n.maxRange)
	}
}

// regrid rebuilds the grid with the given cell, re-inserting every
// current node. maxRange is monotone, so rebuilds happen O(log(maxR))
// times over a network's lifetime.
func (n *Network) regrid(cell float64) {
	grid, err := spatial.NewGrid(cell)
	if err != nil {
		return // invalid cell: keep the previous grid (or scan path) as is
	}
	for id, cfg := range n.configs {
		grid.Insert(id, cfg.Pos)
	}
	n.grid = grid
}

// Graph exposes the induced digraph. Callers must treat it as read-only;
// all mutation goes through the event methods so the graph stays
// consistent with the configurations.
func (n *Network) Graph() *graph.Digraph { return n.g }

// Size returns the number of nodes currently in the network.
func (n *Network) Size() int { return len(n.configs) }

// Has reports whether id is currently in the network.
func (n *Network) Has(id graph.NodeID) bool {
	_, ok := n.configs[id]
	return ok
}

// Config returns the configuration of id. The second result is false if
// id is not in the network.
func (n *Network) Config(id graph.NodeID) (Config, bool) {
	c, ok := n.configs[id]
	return c, ok
}

// Nodes returns all node IDs in ascending order.
func (n *Network) Nodes() []graph.NodeID { return n.g.Nodes() }

// MaxRange returns the monotone upper bound on every range ever present.
func (n *Network) MaxRange() float64 { return n.maxRange }

// Join adds a node with the given configuration and wires up its induced
// edges. It returns an error if the id is already present or the range is
// negative.
func (n *Network) Join(id graph.NodeID, cfg Config) error {
	if _, ok := n.configs[id]; ok {
		return fmt.Errorf("adhoc: node %d already in network", id)
	}
	if cfg.Range < 0 || math.IsNaN(cfg.Range) || math.IsInf(cfg.Range, 0) {
		return fmt.Errorf("adhoc: node %d has invalid range %g", id, cfg.Range)
	}
	n.configs[id] = cfg
	n.g.AddNode(id)
	n.noteRange(cfg.Range)
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		if cfg.Covers(oc.Pos) {
			n.g.AddEdge(id, other)
		}
		if oc.Covers(cfg.Pos) {
			n.g.AddEdge(other, id)
		}
	})
	if n.grid != nil {
		n.grid.Insert(id, cfg.Pos)
	}
	n.invalidateTwoHop(id) // post-state ball covers every new edge
	return nil
}

// Leave removes a node and all its incident edges. It returns an error if
// the id is absent.
func (n *Network) Leave(id graph.NodeID) error {
	if _, ok := n.configs[id]; !ok {
		return fmt.Errorf("adhoc: node %d not in network", id)
	}
	n.invalidateTwoHop(id) // pre-state ball covers every removed edge
	delete(n.configs, id)
	n.g.RemoveNode(id)
	if n.grid != nil {
		n.grid.Remove(id)
	}
	return nil
}

// Move changes a node's position and rewires its incident edges in both
// directions (its own coverage changes, and other nodes may gain or lose
// coverage of it).
func (n *Network) Move(id graph.NodeID, pos geom.Point) error {
	cfg, ok := n.configs[id]
	if !ok {
		return fmt.Errorf("adhoc: node %d not in network", id)
	}
	n.invalidateTwoHop(id)
	cfg.Pos = pos
	n.configs[id] = cfg
	if n.grid != nil {
		n.grid.Move(id, pos)
	}
	n.rewire(id)
	n.invalidateTwoHop(id)
	return nil
}

// SetRange changes a node's maximum transmission range. Only the node's
// own out-edges are affected (in-edges depend on other nodes' ranges).
func (n *Network) SetRange(id graph.NodeID, r float64) error {
	cfg, ok := n.configs[id]
	if !ok {
		return fmt.Errorf("adhoc: node %d not in network", id)
	}
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("adhoc: node %d invalid range %g", id, r)
	}
	n.invalidateTwoHop(id)
	cfg.Range = r
	n.configs[id] = cfg
	n.noteRange(r)
	// Range change only alters id's coverage of others. Drop every
	// current out-edge beyond the new radius, then add newly covered
	// nodes from the candidate set.
	for _, other := range n.g.OutNeighbors(id) {
		if !cfg.Covers(n.configs[other].Pos) {
			n.g.RemoveEdge(id, other)
		}
	}
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		if cfg.Covers(oc.Pos) {
			n.g.AddEdge(id, other)
		}
	})
	n.invalidateTwoHop(id)
	return nil
}

// rewire recomputes all edges incident to id from the configurations:
// stale incident edges are checked directly, new ones come from the
// candidate set around the (new) position.
func (n *Network) rewire(id graph.NodeID) {
	cfg := n.configs[id]
	for _, other := range n.g.OutNeighbors(id) {
		if !cfg.Covers(n.configs[other].Pos) {
			n.g.RemoveEdge(id, other)
		}
	}
	for _, other := range n.g.InNeighbors(id) {
		if !n.configs[other].Covers(cfg.Pos) {
			n.g.RemoveEdge(other, id)
		}
	}
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		if cfg.Covers(oc.Pos) {
			n.g.AddEdge(id, other)
		}
		if oc.Covers(cfg.Pos) {
			n.g.AddEdge(other, id)
		}
	})
}

// invalidateTwoHop drops every cached 2-hop and conflict entry an edge
// flip incident to id (in the graph's current state) can change: an
// edge (id, v) lies on a path of length <= 2 from x exactly when x is
// within one hop of id or of v, so the union of {id}, N(id), and
// N(N(id)) over-approximates the affected set (the conflict set of x is
// a subset of its 2-hop ball, so the same rule covers it). Callers
// invoke it both before and after mutating so pre- and post-state balls
// are both covered.
func (n *Network) invalidateTwoHop(id graph.NodeID) {
	if len(n.twoHop) == 0 && len(n.conflict) == 0 {
		return
	}
	drop := func(v graph.NodeID) {
		delete(n.twoHop, v)
		delete(n.conflict, v)
	}
	drop(id)
	visit := func(v graph.NodeID) {
		drop(v)
		n.g.ForEachOut(v, drop)
		n.g.ForEachIn(v, drop)
	}
	n.g.ForEachOut(id, visit)
	n.g.ForEachIn(id, visit)
}

// WithinTwoHops returns all nodes within two undirected hops of id,
// excluding id itself, ascending. Results are cached; reconfiguration
// events invalidate only the local ball around the event node, so
// repeated queries across a mostly-static network skip the BFS the
// uncached graph.WithinHops re-runs from scratch.
func (n *Network) WithinTwoHops(id graph.NodeID) []graph.NodeID {
	if s, ok := n.twoHop[id]; ok {
		return s
	}
	s := n.g.WithinHops(id, 2)
	n.twoHop[id] = s
	return s
}

// ConflictNeighbors returns the CA1/CA2 conflict neighborhood of id
// (toca.ConflictNeighbors) served from the incremental cache. The
// returned map is shared: callers must not mutate it. Invalidation
// follows the same dirty-ball rule as WithinTwoHops, so the per-event
// cost is local while repeated Forbidden computations across events
// reuse each node's set.
//
// Not safe for concurrent use — parallel readers (batch proposals) must
// go through toca.ConflictNeighbors directly.
func (n *Network) ConflictNeighbors(id graph.NodeID) map[graph.NodeID]struct{} {
	if s, ok := n.conflict[id]; ok {
		return s
	}
	s := toca.ConflictNeighbors(n.g, id)
	n.conflict[id] = s
	return s
}

// Partition is the paper's Fig 2 decomposition of the existing nodes
// relative to a (joining or moving) node n:
//
//	In    (1n): nodes with an edge to n only (n hears them)
//	Both  (2n): nodes with edges in both directions
//	Out   (3n): nodes n has an edge to only (they hear n)
//	None  (4n): nodes with no edge to or from n
//
// All slices are sorted ascending.
type Partition struct {
	In   []graph.NodeID
	Both []graph.NodeID
	Out  []graph.NodeID
	None []graph.NodeID
}

// InOrBoth returns 1n union 2n — the set whose members, together with n,
// must end up with mutually distinct colors after a join or move.
func (p Partition) InOrBoth() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(p.In)+len(p.Both))
	out = append(out, p.In...)
	out = append(out, p.Both...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PartitionFor computes the Fig 2 partition of all *other* current nodes
// relative to the hypothetical configuration cfg of node id. The node
// itself may or may not currently be in the network (it is skipped); this
// lets callers evaluate a join before performing it, and a move at its
// destination.
func (n *Network) PartitionFor(id graph.NodeID, cfg Config) Partition {
	p := n.LocalPartitionFor(id, cfg)
	connected := make(map[graph.NodeID]struct{}, len(p.In)+len(p.Both)+len(p.Out))
	for _, lst := range [][]graph.NodeID{p.In, p.Both, p.Out} {
		for _, u := range lst {
			connected[u] = struct{}{}
		}
	}
	for other := range n.configs {
		if other == id {
			continue
		}
		if _, ok := connected[other]; !ok {
			p.None = append(p.None, other)
		}
	}
	sort.Slice(p.None, func(i, j int) bool { return p.None[i] < p.None[j] })
	return p
}

// LocalPartitionFor is PartitionFor without the 4n (None) set. The
// recoding strategies only consume 1n/2n/3n, and skipping 4n keeps the
// per-event cost local (4n is by definition everyone else, an O(n)
// enumeration). This is the hot-path entry the engine uses.
func (n *Network) LocalPartitionFor(id graph.NodeID, cfg Config) Partition {
	var p Partition
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		hearsUs := cfg.Covers(oc.Pos) // would create id -> other
		weHear := oc.Covers(cfg.Pos)  // would create other -> id
		switch {
		case weHear && hearsUs:
			p.Both = append(p.Both, other)
		case weHear:
			p.In = append(p.In, other)
		case hearsUs:
			p.Out = append(p.Out, other)
		}
	})
	for _, lst := range [][]graph.NodeID{p.In, p.Both, p.Out} {
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
	}
	return p
}

// Clone returns a deep copy of the network. Strategies being compared on
// the same event script each get their own clone.
func (n *Network) Clone() *Network {
	var c *Network
	switch {
	case n.autoGrid:
		c = New()
	case n.grid != nil:
		c = NewIndexed(n.gridCell())
	default:
		c = NewScan()
	}
	c.maxRange = n.maxRange
	if c.autoGrid && c.maxRange > 0 {
		c.regrid(c.maxRange)
	}
	for id, cfg := range n.configs {
		c.configs[id] = cfg
		if c.grid != nil {
			c.grid.Insert(id, cfg.Pos)
		}
	}
	c.g = n.g.Clone()
	return c
}

// gridCell reports the indexed network's cell size (0 when naive).
func (n *Network) gridCell() float64 {
	if n.grid == nil {
		return 0
	}
	return n.grid.CellSize()
}

// CheckConsistency verifies that the maintained digraph matches the edges
// induced by the configurations and that the grid (when present) indexes
// exactly the current positions, returning the first mismatch. Intended
// for tests and the cmd/verify tool.
func (n *Network) CheckConsistency() error {
	for u, uc := range n.configs {
		for v, vc := range n.configs {
			if u == v {
				continue
			}
			want := uc.Covers(vc.Pos)
			got := n.g.HasEdge(u, v)
			if want != got {
				return fmt.Errorf("adhoc: edge %d->%d induced=%v stored=%v", u, v, want, got)
			}
		}
	}
	if n.g.NumNodes() != len(n.configs) {
		return fmt.Errorf("adhoc: graph has %d nodes, configs %d", n.g.NumNodes(), len(n.configs))
	}
	if n.grid != nil {
		if n.grid.Len() != len(n.configs) {
			return fmt.Errorf("adhoc: grid indexes %d nodes, configs %d", n.grid.Len(), len(n.configs))
		}
		for id, cfg := range n.configs {
			if p, ok := n.grid.Position(id); !ok || p != cfg.Pos {
				return fmt.Errorf("adhoc: grid position of %d is %v, config %v", id, p, cfg.Pos)
			}
		}
		if err := n.grid.Validate(); err != nil {
			return err
		}
	}
	return n.g.Validate()
}

// MinimalConnectivityOK reports whether the paper's Minimal Connectivity
// assumption holds for node id under configuration cfg: there must exist
// nodes j and k (j, k != id) such that j is within id's range and id is
// within k's range.
func (n *Network) MinimalConnectivityOK(id graph.NodeID, cfg Config) bool {
	var hearsSomeone, someoneHears bool
	n.candidates(id, cfg.Pos, cfg.Range, func(other graph.NodeID, oc Config) {
		if cfg.Covers(oc.Pos) {
			hearsSomeone = true // id transmits to other (other hears id)
		}
		if oc.Covers(cfg.Pos) {
			someoneHears = true // other transmits to id
		}
	})
	return hearsSomeone && someoneHears
}
