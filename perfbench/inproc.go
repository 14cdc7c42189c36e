package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/workload"
)

// inprocSpec is an in-process workload: rounds of one engine.Engine
// hosting the named strategies, each round built from its own sub-seed
// (base joins, then workload.Churn mixed events), applied back to back.
// The number of rounds is fixed by --seconds, so a seed
// always gets the same work.
type inprocSpec struct {
	name       string
	strategies []sim.StrategyName
	params     workload.Params
	// churn is the number of mixed events after each round's base.
	churn int
	// roundsPerSecond sizes a run: its passes apply seconds *
	// roundsPerSecond rounds in all, about seconds of Apply time on a
	// 2-core Xeon VM.
	roundsPerSecond float64
}

// passes is how many times a run applies its rounds. On the host this
// benchmark was tuned on, one operation's time varies by 2x from one
// execution to the next, so each event's latency (and each cluster-rw
// batch's) is the best of the passes, which are spread over the run.
const passes = 5

// churnMix is the event mix after the base: join 1, leave 1, move 3,
// power 2.
var churnMix = workload.ChurnWeights{Join: 1, Leave: 1, Move: 3, Power: 2}

// paperChurn is the paper's Fig 10 base (N=100, 100x100 arena, ranges
// 20.5-30.5) with all three strategies, followed by churn.
var paperChurn = inprocSpec{
	name:            "paper-churn",
	strategies:      []sim.StrategyName{sim.Minim, sim.CP, sim.BBB},
	params:          workload.Defaults(),
	churn:           100,
	roundsPerSecond: 3.3,
}

// largeIncremental is n=1000 at the paper's density (a 316x316 arena),
// Minim and CP only. Rounds carry n churn events each, so a run of
// several rounds applies about 4n or more.
var largeIncremental = inprocSpec{
	name:       "large-incremental",
	strategies: []sim.StrategyName{sim.Minim, sim.CP},
	params: func() workload.Params {
		p := workload.Defaults()
		p.N = 1000
		p.ArenaW, p.ArenaH = 316.22776601683796, 316.22776601683796
		return p
	}(),
	churn:           1000,
	roundsPerSecond: 1.65,
}

// layerPrefix maps a strategy to the package that implements it.
var layerPrefix = map[sim.StrategyName]string{sim.Minim: "core", sim.CP: "cp", sim.BBB: "bbb"}

func roundSeed(seed uint64, k int) uint64 { return splitmix(splitmix(seed) + uint64(k)) }

// round is one engine with its hosted strategies and its script.
type round struct {
	events []strategy.Event // base joins, then churn
	base   int
	eng    *engine.Engine
	hosted []strategy.Strategy
	timed  []*timedSub // traced passes only, aligned with hosted
}

// setup builds a round: generates its script, hosts the strategies on a
// fresh engine (wrapped in timing spans when traced) and applies the
// base joins.
func (s inprocSpec) setup(seed uint64, traced bool) (*round, error) {
	r := &round{events: workload.Churn(seed, s.params, s.churn, churnMix), base: s.params.N, eng: engine.New()}
	for _, name := range s.strategies {
		st, err := sim.NewSharedStrategy(name, r.eng.Network())
		if err != nil {
			return nil, err
		}
		sub, ok := st.(engine.Subscriber)
		if !ok {
			return nil, fmt.Errorf("%s is not engine-hostable", name)
		}
		if traced {
			ts := &timedSub{Subscriber: sub}
			r.timed = append(r.timed, ts)
			sub = ts
		}
		r.eng.Subscribe(sub)
		r.hosted = append(r.hosted, st)
	}
	if err := r.eng.ApplyAll(r.events[:r.base]); err != nil {
		return nil, fmt.Errorf("base joins: %w", err)
	}
	for _, ts := range r.timed {
		ts.lat, ts.recoded = nil, 0
	}
	return r, nil
}

// checkedRound is what the standalone comparison needs once the timed
// pass is over: the script prefix applied and the engine-hosted final
// assignments.
type checkedRound struct {
	events  []strategy.Event
	assigns []toca.Assignment
}

// passResult is one measured pass over the rounds of a seed.
type passResult struct {
	lat       durations // Engine.Apply, one sample per churn event
	wall      time.Duration
	setups    durations
	attempted int
	failed    int
	// quality accumulators over all churn events, aligned with the
	// spec's strategies
	recodings []int
	maxColors []int
	// per-strategy spans (traced passes)
	subLat     []durations
	subRecoded []int
	digests    []string // final assignments, per round
	rounds     []checkedRound
	checkErr   error
}

// pass applies the given number of rounds. Only the Engine.Apply loop
// is timed; set-up and the CA1/CA2 check of each round run outside it.
func (s inprocSpec) pass(cfg runConfig, traced bool, rounds int) (*passResult, error) {
	n := len(s.strategies)
	p := &passResult{
		recodings: make([]int, n), maxColors: make([]int, n),
		subLat: make([]durations, n), subRecoded: make([]int, n),
	}
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		r, err := s.setup(roundSeed(cfg.seed, k), traced)
		if err != nil {
			return nil, err
		}
		p.setups.add(time.Since(t0))
		applied, start := 0, time.Now()
		for _, ev := range r.events[r.base:] {
			t := time.Now()
			outs, err := r.eng.Apply(ev)
			p.lat.add(time.Since(t))
			p.attempted++
			if err != nil {
				p.failed++
				if p.checkErr == nil {
					p.checkErr = fmt.Errorf("round %d: %v", k, err)
				}
				break
			}
			applied++
			for i, o := range outs {
				p.recodings[i] += o.Recodings()
				p.maxColors[i] += int(o.MaxColor)
			}
		}
		p.wall += time.Since(start)
		for i, ts := range r.timed {
			p.subLat[i] = append(p.subLat[i], ts.lat...)
			p.subRecoded[i] += ts.recoded
		}
		if cfg.corrupt && k == 0 {
			corruptOne(r)
		}
		if err := r.verify(); err != nil && p.checkErr == nil {
			p.checkErr = fmt.Errorf("round %d: %w", k, err)
		}
		cr := checkedRound{events: r.events[:r.base+applied]}
		for _, st := range r.hosted {
			cr.assigns = append(cr.assigns, st.Assignment().Clone())
		}
		p.digests = append(p.digests, digest(s.strategies, cr.assigns))
		p.rounds = append(p.rounds, cr)
	}
	return p, nil
}

// verify checks CA1/CA2 for every hosted strategy on the engine's
// final topology.
func (r *round) verify() error {
	g := r.eng.Network().Graph()
	for _, st := range r.hosted {
		if vs := toca.Verify(g, st.Assignment()); len(vs) > 0 {
			return fmt.Errorf("%s: %d CA1/CA2 violations, first: %v", st.Name(), len(vs), vs[0])
		}
	}
	return nil
}

// checkStandalone replays each round's applied script through fresh
// standalone strategies (sim.NewStrategy, each over its own network)
// and requires the engine-hosted final assignments to equal theirs.
func (s inprocSpec) checkStandalone(rounds []checkedRound) error {
	for k, cr := range rounds {
		for i, name := range s.strategies {
			st, err := sim.NewStrategy(name)
			if err != nil {
				return err
			}
			for j, ev := range cr.events {
				if _, err := st.Apply(ev); err != nil {
					return fmt.Errorf("round %d: standalone %s: event %d: %w", k, name, j, err)
				}
			}
			if d := assignDiff(cr.assigns[i], st.Assignment()); d != "" {
				return fmt.Errorf("round %d: engine-hosted %s differs from standalone: %s", k, name, d)
			}
		}
	}
	return nil
}

// assignDiff describes the first difference between two assignments,
// or returns "" when they are equal.
func assignDiff(got, want toca.Assignment) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d nodes colored, want %d", len(got), len(want))
	}
	for _, id := range sortedIDs(want) {
		if c, ok := got[id]; !ok || c != want[id] {
			return fmt.Sprintf("node %d has color %d (present %v), want %d", id, c, ok, want[id])
		}
	}
	return ""
}

func sortedIDs(a toca.Assignment) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// digest fingerprints final assignments, strategy by strategy.
func digest(names []sim.StrategyName, assigns []toca.Assignment) string {
	h := sha256.New()
	for i, a := range assigns {
		fmt.Fprintf(h, "%s:", names[i])
		for _, id := range sortedIDs(a) {
			fmt.Fprintf(h, "%d=%d,", id, a[id])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corruptOne gives the lowest-numbered node of the first hosted
// strategy a wrong color: a conflict neighbor's, when it has one.
func corruptOne(r *round) {
	a := r.hosted[0].Assignment()
	ids := sortedIDs(a)
	if len(ids) == 0 {
		return
	}
	id := ids[0]
	c := a[id] + 1
	for nb := range toca.ConflictNeighbors(r.eng.Network().Graph(), id) {
		if nc, ok := a[nb]; ok {
			c = nc
			break
		}
	}
	a[id] = c
}

// best is a measurement over passes of the same rounds: per event, the
// fastest pass's latency.
type best struct {
	passes []*passResult
	lat    durations // per churn event
	setups durations
}

// measure runs one pass per entry of traced (true: a traced pass) over
// the rounds seconds asks for, and returns the best of the untraced
// passes and of the traced ones (nil when there are none). Every pass
// must end each round with the same assignments.
func (s inprocSpec) measure(cfg runConfig, seconds float64, traced []bool) (plain, withSpans *best, err error) {
	rounds := max(1, int(math.Round(seconds*s.roundsPerSecond/float64(len(traced)))))
	var all []*passResult
	for i, tr := range traced {
		p, err := s.pass(cfg, tr, rounds)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 && p.checkErr == nil && !slices.Equal(p.digests, all[0].digests) {
			p.checkErr = fmt.Errorf("pass %d ended a round with other assignments than pass 0", i)
		}
		all = append(all, p)
	}
	sets := map[bool]*best{}
	for i, p := range all {
		b := sets[traced[i]]
		if b == nil {
			b = &best{lat: slices.Clone(p.lat)}
			sets[traced[i]] = b
		}
		b.passes = append(b.passes, p)
		b.setups = append(b.setups, p.setups...)
		for j := range min(len(b.lat), len(p.lat)) {
			b.lat[j] = min(b.lat[j], p.lat[j])
		}
	}
	return sets[false], sets[true], nil
}

func (b *best) attempted() (n, failed int) {
	for _, p := range b.passes {
		n, failed = n+p.attempted, failed+p.failed
	}
	return n, failed
}

func (b *best) passErr() error {
	for _, p := range b.passes {
		if p.checkErr != nil {
			return p.checkErr
		}
	}
	return nil
}

// runInproc runs an in-process workload. Traced, untraced and traced
// passes of the same rounds alternate, and their best per-event Apply
// times give the tracing overhead. The per-layer figures come from the
// fastest traced pass, so that they add up to its wall time.
func runInproc(s inprocSpec, cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	if !cfg.trace {
		b, _, err := s.measure(cfg, cfg.seconds, make([]bool, passes))
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		p := b.passes[0]
		m["setup_s"] = b.setups.quantile(0.5).Seconds()
		m["peak_rss_mb"] = rss
		m["events_per_s"] = float64(len(b.lat)) / b.lat.sum().Seconds()
		m["event_p50_us"] = us(b.lat.quantile(0.5))
		for i, name := range s.strategies {
			m["recodings."+string(name)] = float64(p.recodings[i]) / float64(len(p.lat))
			m["max_color."+string(name)] = float64(p.maxColors[i]) / float64(len(p.lat))
		}
		out.attempted, out.failed = b.attempted()
		m["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
		out.checkErr = firstErr(b.passErr(), s.checkStandalone(p.rounds))
		return out, nil
	}
	alternate := make([]bool, 2*passes)
	for i := range alternate {
		alternate[i] = i%2 == 1
	}
	plain, traced, err := s.measure(cfg, cfg.seconds, alternate)
	if err != nil {
		return nil, err
	}
	fast := traced.passes[0]
	for _, p := range traced.passes[1:] {
		if p.wall < fast.wall {
			fast = p
		}
	}
	busy := fast.lat.sum()
	self := busy
	for i, name := range s.strategies {
		pre := layerPrefix[name]
		self -= fast.subLat[i].sum()
		m[pre+".recode_busy_s"] = fast.subLat[i].sum().Seconds()
		m[pre+".recode_p50_us"] = us(fast.subLat[i].quantile(0.5))
		m[pre+".recode_p99_us"] = us(fast.subLat[i].quantile(0.99))
		m[pre+".recoded_nodes"] = float64(fast.subRecoded[i]) / float64(len(fast.lat))
		if name == sim.BBB {
			m["bbb.max_color"] = float64(fast.maxColors[i]) / float64(len(fast.lat))
		}
	}
	m["event_p90_us"] = us(traced.lat.quantile(0.9))
	m["event_p99_us"] = us(traced.lat.quantile(0.99))
	m["bench.timed_wall_s"] = fast.wall.Seconds()
	m["engine.apply_busy_s"] = busy.Seconds()
	m["engine.step_self_s"] = self.Seconds()
	m["engine.wall_coverage"] = busy.Seconds() / fast.wall.Seconds()
	m["trace.overhead_pct"] = 100 * (float64(traced.lat.sum())/float64(plain.lat.sum()) - 1)
	pa, pf := plain.attempted()
	ta, tf := traced.attempted()
	out.attempted, out.failed = pa+ta, pf+tf
	m["loadgen.fail_ratio"] = float64(out.failed) / float64(out.attempted)
	out.checkErr = firstErr(plain.passErr(), traced.passErr(), s.checkStandalone(plain.passes[0].rounds))
	return out, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
