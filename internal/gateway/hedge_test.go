package gateway

import (
	"context"
	"testing"
	"time"

	"terradir/internal/core"
)

// TestHedgeSlowPeerWinsAndCancels is the hedged-read acceptance test: with
// peer 0's outbound path fault-injected to 100ms of latency and the routing
// cache steering the primary attempt at it, the hedge (fired after the
// adaptive delay, which the fast answers keep near hedgeMin) reaches a fast
// peer and wins every flight. The losing attempt is
// cancelled by pending-table removal: when the slow answer eventually lands
// it is counted late and dropped, and the gateway holds no pending entries or
// flights afterwards — nothing leaks.
func TestHedgeSlowPeerWinsAndCancels(t *testing.T) {
	c := startCluster(t, 3, false, peerSetup{})
	// Everything peer 0 sends — forwarded queries and its own replies — is
	// delayed well past the hedge trigger (but under the probe timeout, so
	// the prober keeps it healthy and pickable).
	c.faults[0].SetLatency(100 * time.Millisecond)
	g := c.startGateway(nil)

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

// TestAdaptiveHedgeDelay exercises the p99-derived delay: empty histogram
// clamps to hedgeMin, observed latency moves it, hedgeMax caps it. Probe
// answers never enter the histogram, so it stays the test's to feed.
func TestAdaptiveHedgeDelay(t *testing.T) {
	c := startCluster(t, 2, false, peerSetup{})
	g := c.startGateway(nil)
	if d := g.hedgeDelay(); d != hedgeMin {
		t.Fatalf("empty-histogram hedge delay %s, want hedgeMin %s", d, hedgeMin)
	}
	for i := 0; i < 1000; i++ {
		g.m.upstreamLatency.Observe(0.010)
	}
	if d := g.hedgeDelay(); d < 9*time.Millisecond || d > 12*time.Millisecond {
		t.Fatalf("hedge delay %s, want the observed p99 of 10ms", d)
	}
	for i := 0; i < 1000; i++ {
		g.m.upstreamLatency.Observe(3.0)
	}
	if d := g.hedgeDelay(); d != hedgeMax {
		t.Fatalf("hedge delay %s, want hedgeMax clamp %s", d, hedgeMax)
	}
}
