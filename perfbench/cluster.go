package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/trace"
	"repro/internal/workload"
)

// clusterSpec is the writes-beside-reads service workload: a 3-member
// cluster.Node fleet on loopback HTTP, an open-loop writer posting small
// batches to a session's primary and an open-loop reader polling its
// followers. The churn runs in rounds, one session per round, written
// one after the other: a single N=100 network under long churn grows its
// ranges until the seed, not the program, sets the figures.
type clusterSpec struct {
	params      workload.Params
	strategies  []sim.StrategyName
	replicas    int
	roundEvents int     // churn events per session
	batch       int     // events per POST
	writeRate   float64 // POSTs per second
	readRate    float64 // follower reads per second
	// interval is each member's Run loop period (gossip, ship,
	// reconcile). failAfter (in ticks) puts failure detection beyond any
	// run: under sustained writes a member's Run loop stays inside
	// ShipAll, its gossip stalls, and a 1.5 s detector (cdmaserved's
	// default, 3 ticks of 500 ms) fails the primary over mid-run. The
	// traced run reports that stall as cluster.primary_tick_gap_max_ms.
	interval  time.Duration
	failAfter int
}

var clusterRW = clusterSpec{
	params:      workload.Defaults(),
	strategies:  []sim.StrategyName{sim.Minim, sim.CP},
	replicas:    2,
	roundEvents: 100,
	batch:       1,
	writeRate:   200,
	readRate:    200,
	interval:    5 * time.Millisecond,
	failAfter:   12000, // 60 s of 5 ms ticks
}

// route is one session's placement.
type route struct {
	id        string
	primary   *cluster.Node
	followers []*cluster.Node
}

// fleet is one booted cluster with its sessions loaded with their bases.
type fleet struct {
	nodes    []*cluster.Node
	done     chan struct{}
	wg       sync.WaitGroup
	sessions []route
	trs      []*timingTransport // per member, traced fleets only
}

func (f *fleet) stop() {
	close(f.done)
	f.wg.Wait()
	for _, n := range f.nodes {
		n.Stop()
	}
}

var setupClient = &http.Client{Timeout: 10 * time.Second}

func postJSON(c *http.Client, url string, body, out interface{}) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, nil
}

func encodeBatch(evs []strategy.Event) ([]trace.EventRecord, error) {
	recs := make([]trace.EventRecord, len(evs))
	for i, ev := range evs {
		var err error
		if recs[i], err = trace.EncodeEvent(ev); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// waitFor polls cond every millisecond until it holds or timeout lapses.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// boot starts a fleet the way cdmaserved -cluster builds a member
// (metrics registry, trace hub, logger and health attached), creates one
// session per base through the cluster API, loads each base and waits
// until every follower has applied it. A traced fleet gives every member
// a timingTransport of its own.
func (c clusterSpec) boot(dir string, seed uint64, bases [][]strategy.Event, traced bool) (*fleet, error) {
	f := &fleet{done: make(chan struct{})}
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	for i := 0; i < 3; i++ {
		id := cluster.MemberID(fmt.Sprintf("m%d", i))
		health := obs.NewHealth("starting")
		cfg := cluster.Config{
			ID: id, Dir: filepath.Join(dir, string(id)),
			Replicas: c.replicas, FailAfter: c.failAfter, Seed: seed + uint64(i),
			Registry: obs.NewRegistry(),
			Trace:    obs.NewTraceHub(obs.DefaultTraceRing),
			Log:      obs.NewLogger(os.Stderr, obs.LevelError),
			Health:   health,
		}
		if traced {
			tr := newTimingTransport()
			f.trs = append(f.trs, tr)
			cfg.Transport = tr
		}
		n, err := cluster.NewNode(cfg)
		if err != nil {
			return fail(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			return fail(err)
		}
		f.nodes = append(f.nodes, n)
		if err := n.Recover(); err != nil {
			return fail(err)
		}
		if i > 0 {
			if err := n.JoinCluster(f.nodes[0].Addr()); err != nil {
				return fail(err)
			}
		}
		health.Set(true, "")
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			n.Run(f.done, c.interval)
		}()
	}
	if err := waitFor(10*time.Second, "membership", func() bool {
		for _, n := range f.nodes {
			if len(n.Membership().Alive()) != len(f.nodes) {
				return false
			}
		}
		return true
	}); err != nil {
		return fail(err)
	}
	byID := map[cluster.MemberID]*cluster.Node{}
	for _, n := range f.nodes {
		byID[n.ID()] = n
	}
	names := make([]string, len(c.strategies))
	for i, s := range c.strategies {
		names[i] = string(s)
	}
	for i, base := range bases {
		var ri struct {
			Primary   cluster.Member   `json:"primary"`
			Followers []cluster.Member `json:"followers"`
		}
		rt := route{id: fmt.Sprintf("bench-%d", i)}
		create := map[string]interface{}{"id": rt.id, "config": cluster.SessionConfig{Strategies: names, SyncEvery: 1}}
		if code, err := postJSON(setupClient, "http://"+f.nodes[0].Addr()+"/cluster/sessions", create, &ri); err != nil || code != http.StatusCreated {
			return fail(fmt.Errorf("create %s: HTTP %d: %v", rt.id, code, err))
		}
		rt.primary = byID[ri.Primary.ID]
		for _, m := range ri.Followers {
			rt.followers = append(rt.followers, byID[m.ID])
		}
		if rt.primary == nil || len(rt.followers) != c.replicas {
			return fail(fmt.Errorf("%s: route names primary %q and %d followers", rt.id, ri.Primary.ID, len(ri.Followers)))
		}
		for j := 0; j < len(base); j += 25 {
			recs, err := encodeBatch(base[j:min(j+25, len(base))])
			if err != nil {
				return fail(err)
			}
			url := "http://" + rt.primary.Addr() + "/v1/sessions/" + rt.id + "/events"
			if code, err := postJSON(setupClient, url, map[string]interface{}{"events": recs}, nil); err != nil || code != http.StatusOK {
				return fail(fmt.Errorf("%s base load: HTTP %d: %v", rt.id, code, err))
			}
		}
		f.sessions = append(f.sessions, rt)
	}
	for i, base := range bases {
		if err := waitFor(10*time.Second, "followers to apply the base", func() bool {
			return f.sessions[i].minFollowerSeq() >= len(base)
		}); err != nil {
			return fail(err)
		}
	}
	return f, nil
}

// minFollowerSeq is the lowest seq any follower's read view shows.
func (rt route) minFollowerSeq() int {
	low := math.MaxInt
	for _, n := range rt.followers {
		rep, ok := n.Manager().GetReplica(rt.id)
		if !ok {
			return -1
		}
		low = min(low, rep.View().Seq())
	}
	return low
}

// batch is one scheduled POST.
type batch struct {
	session int
	events  []strategy.Event
	lastSeq int // the seq the batch's last event gets
}

// writeRec is one POST of the open-loop writer.
type writeRec struct {
	due, ack time.Time
	late     time.Duration
	ackSeq   int // the seq the 200 reported
	ok       bool
}

// readRec is one follower read of the open-loop reader.
type readRec struct {
	due, done time.Time
	late      time.Duration
	session   int
	follower  int
	seq       int
	ok        bool
}

// load is the measured phase's raw record; writes align with the batch
// schedule.
type load struct {
	start         time.Time
	writes        []writeRec
	reads         []readRec
	attempted     int
	failed        int
	backpressured int
	err           error // a write that could not be completed
}

// pace sleeps until due and returns how late the generator is.
func pace(due time.Time) time.Duration {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return time.Since(due)
}

func oneConnClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = 1
	return &http.Client{
		Timeout:   5 * time.Second,
		Transport: tr,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

// drive runs the open-loop writer and reader. Batch k is due k/writeRate
// after the start. Reads are due every 1/readRate, alternating between
// the followers of the session of the oldest due batch the reader has
// not yet seen, until every batch has been seen (or 5 s after the last
// write).
func (c clusterSpec) drive(f *fleet, batches []batch) *load {
	ld := &load{start: time.Now().Add(10 * time.Millisecond), writes: make([]writeRec, len(batches))}
	var mu sync.Mutex // guards the counters both loops bump
	count := func(failed bool) {
		mu.Lock()
		ld.attempted++
		if failed {
			ld.failed++
		}
		mu.Unlock()
	}
	writePeriod := time.Duration(float64(time.Second) / c.writeRate)
	writesDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(writesDone)
		cl := oneConnClient()
		for k, b := range batches {
			w := &ld.writes[k]
			w.due = ld.start.Add(time.Duration(k) * writePeriod)
			w.late = pace(w.due)
			recs, err := encodeBatch(b.events)
			if err != nil {
				ld.err = err
				return
			}
			url := "http://" + f.sessions[b.session].primary.Addr() + "/v1/sessions/" + f.sessions[b.session].id + "/events"
			for len(recs) > 0 {
				var resp struct {
					Applied int    `json:"applied"`
					Seq     int    `json:"seq"`
					Error   string `json:"error"`
				}
				code, err := postJSON(cl, url, map[string]interface{}{"events": recs}, &resp)
				count(code != http.StatusOK)
				switch {
				case err != nil:
					ld.err = fmt.Errorf("write %d: %v", k, err)
					return
				case code == http.StatusOK:
					w.ok, w.ack, w.ackSeq = true, time.Now(), resp.Seq
					recs = nil
				case code == http.StatusTooManyRequests:
					mu.Lock()
					ld.backpressured++
					mu.Unlock()
					recs = recs[resp.Applied:]
					time.Sleep(time.Millisecond)
				default:
					ld.err = fmt.Errorf("write %d: HTTP %d: %s", k, code, resp.Error)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		cl := oneConnClient()
		period := time.Duration(float64(time.Second) / c.readRate)
		seen := make([]int, len(f.sessions))
		oldest := 0 // first batch not yet seen by a read
		var stopAt time.Time
		for k := 0; ; k++ {
			for oldest < len(batches) && seen[batches[oldest].session] >= batches[oldest].lastSeq {
				oldest++
			}
			if oldest == len(batches) {
				return
			}
			if stopAt.IsZero() {
				select {
				case <-writesDone:
					stopAt = time.Now().Add(5 * time.Second)
				default:
				}
			} else if time.Now().After(stopAt) {
				return
			}
			r := readRec{due: ld.start.Add(time.Duration(k) * period)}
			r.late = pace(r.due)
			// Read the session of the oldest unseen batch once that batch
			// is due; before, the session of the latest due batch.
			sess := batches[oldest].session
			if due := int(time.Since(ld.start) / writePeriod); due >= 0 && due < oldest {
				sess = batches[due].session
			}
			rt := f.sessions[sess]
			r.session, r.follower = sess, k%len(rt.followers)
			resp, err := cl.Get("http://" + rt.followers[r.follower].Addr() + "/v1/sessions/" + rt.id)
			if err == nil {
				var st struct {
					Seq int `json:"seq"`
				}
				derr := json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				r.done = time.Now()
				r.ok = derr == nil && resp.StatusCode == http.StatusOK && resp.Header.Get("X-Read-From") == "follower"
				r.seq = st.Seq
			}
			count(!r.ok)
			if r.ok {
				seen[r.session] = max(seen[r.session], r.seq)
			}
			ld.reads = append(ld.reads, r)
		}
	}()
	wg.Wait()
	return ld
}

// visible returns, per acked write, the time from when it was due to
// the completion of the first read of its session that shows its last
// seq.
func (ld *load) visible(batches []batch, sessions int) (durations, error) {
	type seenAt struct {
		done time.Time
		seq  int // highest seq any read of the session had shown by done
	}
	bySession := make([][]seenAt, sessions)
	reads := slices.Clone(ld.reads)
	sort.Slice(reads, func(i, j int) bool { return reads[i].done.Before(reads[j].done) })
	for _, r := range reads {
		if !r.ok {
			continue
		}
		hist := bySession[r.session]
		hi := r.seq
		if len(hist) > 0 {
			hi = max(hi, hist[len(hist)-1].seq)
		}
		bySession[r.session] = append(hist, seenAt{r.done, hi})
	}
	var vis durations
	for k, w := range ld.writes {
		if !w.ok {
			continue
		}
		hist := bySession[batches[k].session]
		i := sort.Search(len(hist), func(i int) bool { return hist[i].seq >= batches[k].lastSeq })
		if i == len(hist) {
			return nil, fmt.Errorf("no follower read ever showed seq %d of session %d", batches[k].lastSeq, batches[k].session)
		}
		vis.add(hist[i].done.Sub(w.due))
	}
	return vis, nil
}

// check compares every session with an in-process reference run of its
// script: the primary's view and every follower's view equal it at the
// final seq, its assignments are CA1/CA2-valid, no acked seq passes the
// final seq, and no follower's reads went backwards. It also returns
// the reference's quality numbers over the churn events.
func (c clusterSpec) check(f *fleet, ld *load, batches []batch, scripts [][]strategy.Event) (map[string]float64, error) {
	base := c.params.N
	recodings, maxColors := make([]int, len(c.strategies)), make([]int, len(c.strategies))
	churn := 0
	for si, rt := range f.sessions {
		script := scripts[si]
		final := len(script)
		if err := waitFor(5*time.Second, "followers to reach the final seq", func() bool { return rt.minFollowerSeq() >= final }); err != nil {
			return nil, fmt.Errorf("%s: %w", rt.id, err)
		}
		eng := engine.New()
		var hosted []strategy.Strategy
		for _, name := range c.strategies {
			st, err := sim.NewSharedStrategy(name, eng.Network())
			if err != nil {
				return nil, err
			}
			eng.Subscribe(st.(engine.Subscriber))
			hosted = append(hosted, st)
		}
		for i, ev := range script {
			outs, err := eng.Apply(ev)
			if err != nil {
				return nil, fmt.Errorf("%s reference: event %d: %w", rt.id, i, err)
			}
			if i >= base {
				for j, o := range outs {
					recodings[j] += o.Recodings()
					maxColors[j] += int(o.MaxColor)
				}
			}
		}
		churn += final - base
		s, ok := rt.primary.Manager().Get(rt.id)
		if !ok {
			return nil, fmt.Errorf("%s: primary no longer serves the session", rt.id)
		}
		if err := s.Barrier(); err != nil {
			return nil, err
		}
		type namedView struct {
			who string
			v   *serve.View
		}
		views := []namedView{{"primary", s.View()}}
		for i, n := range rt.followers {
			rep, _ := n.Manager().GetReplica(rt.id)
			views = append(views, namedView{fmt.Sprintf("follower %d", i), rep.View()})
		}
		g := eng.Network().Graph()
		for i, st := range hosted {
			if vs := toca.Verify(g, st.Assignment()); len(vs) > 0 {
				return nil, fmt.Errorf("%s reference %s: %d CA1/CA2 violations", rt.id, st.Name(), len(vs))
			}
			for _, v := range views {
				if v.v.Seq() != final {
					return nil, fmt.Errorf("%s %s at seq %d, want %d", rt.id, v.who, v.v.Seq(), final)
				}
				got, ok := v.v.Assignment(string(c.strategies[i]))
				if !ok {
					return nil, fmt.Errorf("%s %s does not host %s", rt.id, v.who, c.strategies[i])
				}
				if d := assignDiff(got, st.Assignment()); d != "" {
					return nil, fmt.Errorf("%s %s %s differs from the in-process reference: %s", rt.id, v.who, c.strategies[i], d)
				}
			}
		}
	}
	for k, w := range ld.writes {
		b := batches[k]
		if w.ok && (w.ackSeq > len(scripts[b.session]) || w.ackSeq < b.lastSeq) {
			return nil, fmt.Errorf("write %d acked at seq %d: outside [%d, %d]", k, w.ackSeq, b.lastSeq, len(scripts[b.session]))
		}
	}
	last := map[[2]int]int{}
	for _, r := range ld.reads {
		key := [2]int{r.session, r.follower}
		if !r.ok {
			continue
		}
		if r.seq < last[key] {
			return nil, fmt.Errorf("session %d follower %d read seq %d after %d", r.session, r.follower, r.seq, last[key])
		}
		last[key] = r.seq
	}
	quality := map[string]float64{}
	for j, name := range c.strategies {
		quality["recodings."+string(name)] = float64(recodings[j]) / float64(churn)
		quality["max_color."+string(name)] = float64(maxColors[j]) / float64(churn)
	}
	return quality, nil
}

// scrapeFleet sums the members' /metrics counters over every session
// and returns each member's scrape.
func scrapeFleet(f *fleet) (map[string]float64, []*obs.Scrape, error) {
	sums := map[string]float64{}
	var scrapes []*obs.Scrape
	for _, n := range f.nodes {
		resp, err := setupClient.Get("http://" + n.Addr() + "/metrics")
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		sc, err := obs.ParseScrape(string(body))
		if err != nil {
			return nil, nil, err
		}
		for _, name := range []string{"serve_wal_fsyncs_total", "serve_wal_appended_bytes_total", "serve_view_publishes_total"} {
			sums[name] += sc.Sum(name, nil)
		}
		for _, st := range clusterRW.strategies {
			sums["engine_recode_seconds_sum/"+string(st)] += sc.Sum("engine_recode_seconds_sum", map[string]string{"strategy": string(st)})
		}
		scrapes = append(scrapes, sc)
	}
	return sums, scrapes, nil
}

// clusterPass is one booted fleet driven through the batch schedule.
type clusterPass struct {
	ld       *load
	vis      durations // per batch
	writeAck durations // per batch
	events   int
	wall     time.Duration
	quality  map[string]float64
	before   map[string]float64
	after    map[string]float64
	scrapes  []*obs.Scrape
	trs      []*timingTransport
	// leads[i] reports whether member i led a session
	leads    []bool
	checkErr error
}

// schedule builds the sessions' scripts for about seconds of writes —
// whole sessions of churn — and the batches that carry their churn.
func (c clusterSpec) schedule(seed uint64, seconds float64) ([][]strategy.Event, []batch) {
	perSession := (c.roundEvents + c.batch - 1) / c.batch
	sessions := max(1, int(math.Round(seconds*c.writeRate/float64(perSession))))
	scripts := make([][]strategy.Event, sessions)
	var batches []batch
	for i := range scripts {
		scripts[i] = workload.Churn(roundSeed(seed, i), c.params, c.roundEvents, churnMix)
		for j := c.params.N; j < len(scripts[i]); j += c.batch {
			end := min(j+c.batch, len(scripts[i]))
			batches = append(batches, batch{session: i, events: scripts[i][j:end], lastSeq: end})
		}
	}
	return scripts, batches
}

// run boots a fleet (timed into setups), drives it through the batches
// and checks it.
func (c clusterSpec) run(cfg runConfig, k int, scripts [][]strategy.Event, batches []batch, traced bool, setups *durations) (*clusterPass, error) {
	bases := make([][]strategy.Event, len(scripts))
	for i, sc := range scripts {
		bases[i] = sc[:c.params.N]
	}
	t0 := time.Now()
	f, err := c.boot(filepath.Join(cfg.dir, fmt.Sprintf("fleet-%d", k)), cfg.seed, bases, traced)
	if err != nil {
		return nil, err
	}
	setups.add(time.Since(t0))
	defer f.stop()
	p := &clusterPass{trs: f.trs}
	for _, n := range f.nodes {
		led := false
		for _, rt := range f.sessions {
			led = led || rt.primary == n
		}
		p.leads = append(p.leads, led)
	}
	if p.before, _, err = scrapeFleet(f); err != nil {
		return nil, err
	}
	for _, tr := range f.trs {
		tr.enable()
	}
	p.ld = c.drive(f, batches)
	if p.after, p.scrapes, err = scrapeFleet(f); err != nil {
		return nil, err
	}
	var lastAck time.Time
	for k, w := range p.ld.writes {
		if w.ok {
			p.writeAck.add(w.ack.Sub(w.due))
			p.events += len(batches[k].events)
			lastAck = w.ack
		}
	}
	p.wall = lastAck.Sub(p.ld.start)
	p.vis, p.checkErr = p.ld.visible(batches, len(scripts))
	if p.ld.err != nil {
		p.checkErr = p.ld.err
	}
	if p.checkErr == nil {
		p.quality, p.checkErr = c.check(f, p.ld, batches, scripts)
	}
	return p, nil
}

// fleetRuns is a measurement over passes: fresh fleets driven through
// the same batch schedule one after the other. Per batch, the fastest
// pass's latencies count (see passes).
type fleetRuns struct {
	passes        []*clusterPass
	vis, writeAck durations // per batch, best pass
	read, late    durations // pooled
	attempted     int
	failed        int
	checkErr      error
}

// measure drives one fresh fleet per entry of traced (true: a traced
// fleet) through the batch schedule for seconds, and returns the
// untraced fleets' and the traced fleets' results (nil when none).
func (c clusterSpec) measure(cfg runConfig, seconds float64, traced []bool, setups *durations) (plain, withSpans *fleetRuns, err error) {
	scripts, batches := c.schedule(cfg.seed, seconds/float64(len(traced)))
	sets := map[bool]*fleetRuns{}
	for i, tr := range traced {
		p, err := c.run(cfg, i, scripts, batches, tr, setups)
		if err != nil {
			return nil, nil, err
		}
		if sets[tr] == nil {
			sets[tr] = &fleetRuns{}
		}
		sets[tr].add(p)
	}
	for _, fr := range sets {
		fr.best(len(batches))
	}
	return sets[false], sets[true], nil
}

func (fr *fleetRuns) add(p *clusterPass) {
	fr.passes = append(fr.passes, p)
	fr.attempted += p.ld.attempted
	fr.failed += p.ld.failed
	fr.checkErr = firstErr(fr.checkErr, p.checkErr)
	for _, w := range p.ld.writes {
		fr.late.add(w.late)
	}
	for _, r := range p.ld.reads {
		fr.late.add(r.late)
		if r.ok {
			fr.read.add(r.done.Sub(r.due))
		}
	}
}

// best keeps, per batch, the fastest pass's latencies.
func (fr *fleetRuns) best(batches int) {
	if fr.checkErr != nil {
		return
	}
	for _, p := range fr.passes {
		if len(p.vis) != batches || len(p.writeAck) != batches {
			fr.checkErr = fmt.Errorf("%d of %d writes acknowledged", len(p.writeAck), batches)
			return
		}
	}
	fr.vis, fr.writeAck = slices.Clone(fr.passes[0].vis), slices.Clone(fr.passes[0].writeAck)
	for _, p := range fr.passes[1:] {
		for k := range batches {
			fr.vis[k] = min(fr.vis[k], p.vis[k])
			fr.writeAck[k] = min(fr.writeAck[k], p.writeAck[k])
		}
	}
}

// runClusterRW drives one fleet per pass; setup_s is the median of
// their boots. Traced, untraced and traced fleets alternate, and their
// best-pass write-ack medians give the tracing overhead.
func runClusterRW(c clusterSpec, cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var setups durations
	m := out.metrics
	if !cfg.trace {
		fr, _, err := c.measure(cfg, cfg.seconds, make([]bool, passes), &setups)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.attempted, out.failed, out.checkErr = fr.attempted, fr.failed, fr.checkErr
		m["setup_s"] = setups.quantile(0.5).Seconds()
		m["peak_rss_mb"] = rss
		m["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
		if out.checkErr != nil {
			return out, nil
		}
		events, wall := 0, time.Duration(0)
		for _, p := range fr.passes {
			events, wall = events+p.events, wall+p.wall
		}
		m["events_per_s"] = float64(events) / wall.Seconds()
		m["event_p50_us"] = us(fr.vis.quantile(0.5))
		for k, v := range fr.passes[0].quality {
			m[k] = v
		}
		return out, nil
	}
	alternate := make([]bool, 2*passes)
	for i := range alternate {
		alternate[i] = i%2 == 1
	}
	plain, traced, err := c.measure(cfg, cfg.seconds, alternate, &setups)
	if err != nil {
		return nil, err
	}
	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed
	out.checkErr = firstErr(plain.checkErr, traced.checkErr)
	m["loadgen.fail_ratio"] = float64(out.failed) / float64(out.attempted)
	if out.checkErr != nil {
		return out, nil
	}
	var ship durations
	var shipBytes int64
	var tickGap, wall time.Duration
	gossip, events, backpressured := 0, 0, 0
	merged := &obs.Scrape{} // the session leaders' latency histograms
	delta := map[string]float64{}
	for _, p := range traced.passes {
		events += p.events
		wall += p.wall
		backpressured += p.ld.backpressured
		for i, tr := range p.trs {
			st, g, gap := tr.spans()
			ship = append(ship, st.lat...)
			shipBytes += st.bytes
			gossip += g
			if p.leads[i] {
				tickGap = max(tickGap, gap)
				merged.Samples = append(merged.Samples, p.scrapes[i].Samples...)
			}
		}
		for name, v := range p.after {
			delta[name] += v - p.before[name]
		}
	}
	ev := float64(events)
	m["event_p90_us"] = us(traced.vis.quantile(0.9))
	m["event_p99_us"] = us(traced.vis.quantile(0.99))
	m["bench.timed_wall_s"] = wall.Seconds()
	m["cluster.ship_rpc_p50_us"] = us(ship.quantile(0.5))
	m["cluster.ship_rpc_p99_us"] = us(ship.quantile(0.99))
	m["cluster.ship_rpcs_per_event"] = float64(len(ship)) / ev
	m["cluster.ship_bytes_per_event"] = float64(shipBytes) / ev
	m["cluster.gossip_rpcs"] = float64(gossip)
	m["cluster.primary_tick_gap_max_ms"] = ms(tickGap)
	apply50, _ := merged.Quantile("serve_apply_seconds", nil, 0.5)
	apply99, _ := merged.Quantile("serve_apply_seconds", nil, 0.99)
	fsync50, _ := merged.Quantile("serve_fsync_seconds", nil, 0.5)
	m["serve.apply_p50_us"] = apply50 * 1e6
	m["serve.apply_p99_us"] = apply99 * 1e6
	m["serve.fsync_p50_us"] = fsync50 * 1e6
	m["serve.fsyncs_per_event"] = delta["serve_wal_fsyncs_total"] / ev
	m["serve.wal_bytes_per_event"] = delta["serve_wal_appended_bytes_total"] / ev
	m["serve.view_publishes_per_event"] = delta["serve_view_publishes_total"] / ev
	m["serve.backpressure_retries"] = float64(backpressured)
	// The strategies run inside the members: their spans are the
	// members' engine_recode_seconds histograms (leaders) and sums
	// (fleet-wide, followers' replay included).
	for _, name := range c.strategies {
		pre, sel := layerPrefix[name], map[string]string{"strategy": string(name)}
		p50, _ := merged.Quantile("engine_recode_seconds", sel, 0.5)
		p99, _ := merged.Quantile("engine_recode_seconds", sel, 0.99)
		m[pre+".recode_p50_us"] = p50 * 1e6
		m[pre+".recode_p99_us"] = p99 * 1e6
		m[pre+".recode_busy_s"] = delta["engine_recode_seconds_sum/"+string(name)]
		m[pre+".recoded_nodes"] = traced.passes[0].quality["recodings."+string(name)]
	}
	m["loadgen.write_ack_p50_ms"] = ms(traced.writeAck.quantile(0.5))
	m["loadgen.write_ack_p99_ms"] = ms(traced.writeAck.quantile(0.99))
	m["loadgen.read_p50_ms"] = ms(traced.read.quantile(0.5))
	m["loadgen.read_p99_ms"] = ms(traced.read.quantile(0.99))
	m["loadgen.late_p99_ms"] = ms(traced.late.quantile(0.99))
	m["trace.overhead_pct"] = 100 * (float64(traced.writeAck.quantile(0.5))/float64(plain.writeAck.quantile(0.5)) - 1)
	return out, nil
}
