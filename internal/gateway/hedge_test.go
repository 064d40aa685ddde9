package gateway

import (
	"context"
	"testing"
	"time"

	"terradir/internal/core"
)

// TestHedgeSlowPeerWinsAndCancels is the hedged-read acceptance test: with
// peer 0's outbound path fault-injected to 100ms of latency and the routing
// cache steering the primary attempt at it, the hedge (fired after a fixed
// 10ms) reaches a fast peer and wins every flight. The losing attempt is
// cancelled by pending-table removal: when the slow answer eventually lands
// it is counted late and dropped, and the gateway holds no pending entries or
// flights afterwards — nothing leaks.
func TestHedgeSlowPeerWinsAndCancels(t *testing.T) {
	c := startCluster(t, 3, false, 0)
	// Everything peer 0 sends — forwarded queries and its own replies — is
	// delayed well past the hedge trigger (but under the probe timeout, so
	// the prober keeps it healthy and pickable).
	c.faults[0].SetLatency(100 * time.Millisecond)
	g := c.startGateway(func(o *Options) {
		o.HedgeAfter = 10 * time.Millisecond
		o.ProbeTimeout = 300 * time.Millisecond
	})
	waitReady(t, g)

	// Destinations the fast peers own; the cache pins the primary pick to
	// the slow peer so every flight must hedge to win quickly.
	var dests []core.NodeID
	for nd, o := range c.owner {
		if o != 0 && len(dests) < 5 {
			dests = append(dests, core.NodeID(nd))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, nd := range dests {
		g.cache.put(nd, []core.ServerID{0})
		start := time.Now()
		res, err := g.Lookup(ctx, nd)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("lookup %d failed: %s", nd, res.Reason)
		}
		if !res.Hedged || !res.HedgeWon {
			t.Fatalf("lookup %d: hedged=%v hedgeWon=%v, want both (took %s)",
				nd, res.Hedged, res.HedgeWon, time.Since(start))
		}
		if res.Latency > 90*time.Millisecond {
			t.Fatalf("hedged lookup took %s, slower than the slow path", res.Latency)
		}
	}

	snap := g.Registry().Snapshot()
	if snap["terradir_gw_hedge_fired_total"] < float64(len(dests)) {
		t.Fatalf("hedge_fired %g < %d flights", snap["terradir_gw_hedge_fired_total"], len(dests))
	}
	if snap["terradir_gw_hedge_won_total"] < float64(len(dests)) {
		t.Fatalf("hedge_won %g < %d flights", snap["terradir_gw_hedge_won_total"], len(dests))
	}

	// The cancelled (slow) attempts' answers arrive ~100ms later, find no
	// pending entry, and are dropped as late.
	waitFor(t, 5*time.Second, "late results from cancelled attempts", func() bool {
		return g.Registry().Snapshot()["terradir_gw_late_results_total"] >= float64(len(dests))
	})

	// No leak: every lookup pending entry was removed (only transient probe
	// entries may exist) and no flight is outstanding.
	waitFor(t, 2*time.Second, "pending table drained", func() bool {
		g.pmu.Lock()
		lookups := 0
		for _, a := range g.pending {
			if !a.probe {
				lookups++
			}
		}
		g.pmu.Unlock()
		return lookups == 0
	})
	g.fmu.Lock()
	nFlights := len(g.flights)
	g.fmu.Unlock()
	if nFlights != 0 {
		t.Fatalf("%d flights still registered after all lookups returned", nFlights)
	}
}

// TestHedgeDisabled pins the negative: with HedgeAfter < 0 a slow upstream
// just makes the lookup slow — no hedge fires.
func TestHedgeDisabled(t *testing.T) {
	c := startCluster(t, 2, false, 0)
	c.faults[0].SetLatency(50 * time.Millisecond)
	g := c.startGateway(func(o *Options) {
		o.HedgeAfter = -1
		o.ProbeTimeout = 300 * time.Millisecond
	})
	waitReady(t, g)

	nd := c.ownedNode(1)
	g.cache.put(nd, []core.ServerID{0})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := g.Lookup(ctx, nd)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Hedged {
		t.Fatalf("ok=%v hedged=%v, want ok and unhedged", res.OK, res.Hedged)
	}
	if res.Latency < 50*time.Millisecond {
		t.Fatalf("lookup took %s, should have ridden the slow path", res.Latency)
	}
	if fired := g.Registry().Snapshot()["terradir_gw_hedge_fired_total"]; fired != 0 {
		t.Fatalf("hedge fired %g times with hedging disabled", fired)
	}
}

// TestAdaptiveHedgeDelay exercises the p99-derived delay: empty histogram
// clamps to HedgeMin, observed latency moves it, HedgeMax caps it.
func TestAdaptiveHedgeDelay(t *testing.T) {
	c := startCluster(t, 2, false, 0)
	g := c.startGateway(func(o *Options) {
		o.HedgeAfter = 0 // adaptive
		o.HedgeMin = 5 * time.Millisecond
		o.HedgeMax = 40 * time.Millisecond
		o.ProbeInterval = -1 // no probes: the histogram stays ours to feed
	})
	if d := g.hedgeDelay(); d != 5*time.Millisecond {
		t.Fatalf("empty-histogram hedge delay %s, want HedgeMin", d)
	}
	for i := 0; i < 1000; i++ {
		g.m.upstreamLatency.Observe(0.010)
	}
	if d := g.hedgeDelay(); d < 5*time.Millisecond || d > 40*time.Millisecond {
		t.Fatalf("hedge delay %s outside [HedgeMin, HedgeMax]", d)
	}
	for i := 0; i < 1000; i++ {
		g.m.upstreamLatency.Observe(3.0)
	}
	if d := g.hedgeDelay(); d != 40*time.Millisecond {
		t.Fatalf("hedge delay %s, want HedgeMax clamp", d)
	}
}
