package main

import (
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/strategy"
)

// timedSub is the traced run's span around one strategy's
// engine.Subscriber.OnDelta: busy time, per-call latency and the number
// of nodes it recoded.
type timedSub struct {
	engine.Subscriber
	lat     durations
	recoded int
}

func (t *timedSub) OnDelta(d engine.Delta) (strategy.Outcome, error) {
	t0 := time.Now()
	out, err := t.Subscriber.OnDelta(d)
	t.lat.add(time.Since(t0))
	t.recoded += out.Recodings()
	return out, err
}

// rpcStats are the ship RPCs timingTransport saw.
type rpcStats struct {
	lat   durations
	bytes int64
}

// timingTransport is the traced run's span around every outbound RPC a
// cluster member makes (it is passed as cluster.Config.Transport). It
// times each ship round trip up to the response headers (that includes
// the follower's append, apply and fsync), counts its request bytes,
// and notes when each gossip RPC was sent. Recording starts at enable, so set-up traffic
// stays out of the figures. Each member gets its own.
type timingTransport struct {
	base http.RoundTripper

	mu   sync.Mutex
	on   bool
	ship rpcStats
	// gossipAt are the send times of gossip RPCs: one per Run-loop
	// tick, so their gaps show how long the member's loop was busy.
	gossipAt []time.Time
}

func newTimingTransport() *timingTransport {
	return &timingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
}

func (t *timingTransport) enable() {
	t.mu.Lock()
	t.on = true
	t.mu.Unlock()
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	dt := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return resp, err
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/cluster/ship/"):
		t.ship.lat.add(dt)
		t.ship.bytes += max(r.ContentLength, 0)
	case r.URL.Path == "/cluster/gossip":
		t.gossipAt = append(t.gossipAt, t0)
	}
	return resp, err
}

// spans returns what was recorded: ship RPC latencies and request
// bytes, the number of gossip RPCs, and the longest time between two
// consecutive gossip RPCs.
func (t *timingTransport) spans() (ship rpcStats, gossip int, maxGap time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 1; i < len(t.gossipAt); i++ {
		maxGap = max(maxGap, t.gossipAt[i].Sub(t.gossipAt[i-1]))
	}
	return rpcStats{lat: slices.Clone(t.ship.lat), bytes: t.ship.bytes}, len(t.gossipAt), maxGap
}
