package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/overlay"
)

func TestAdmissionBucket(t *testing.T) {
	a := newAdmission(2)
	now := time.Unix(1000, 0)
	a.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := a.allow("t1"); !ok {
			t.Fatalf("burst request %d shed", i)
		}
	}
	ok, wait := a.allow("t1")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if wait <= 0 || wait > 600*time.Millisecond {
		t.Fatalf("retry-after hint %v, want ~500ms", wait)
	}
	now = now.Add(wait + time.Millisecond)
	if ok, _ := a.allow("t1"); !ok {
		t.Fatal("request after refill shed")
	}
	// Tenants are independent.
	if ok, _ := a.allow("t2"); !ok {
		t.Fatal("fresh tenant shed")
	}
	// rate <= 0 admits everything.
	u := newAdmission(0)
	for i := 0; i < 100; i++ {
		if ok, _ := u.allow("x"); !ok {
			t.Fatal("unlimited admission shed")
		}
	}
}

func TestAdmissionSweep(t *testing.T) {
	a := newAdmission(1000)
	now := time.Unix(1000, 0)
	a.now = func() time.Time { return now }
	for i := 0; i < maxTenants; i++ {
		a.allow(fmt.Sprintf("t%d", i))
	}
	// All buckets refill within 1ms at rate 1000; the next new tenant
	// triggers the sweep instead of growing the table past the bound.
	now = now.Add(10 * time.Millisecond)
	a.allow("fresh")
	a.mu.Lock()
	n := len(a.buckets)
	a.mu.Unlock()
	if n > 1 {
		t.Fatalf("sweep left %d buckets, want 1", n)
	}
}

// TestAdmissionTableBounded streams distinct tenants faster than any bucket
// refills (the clock never moves), so no sweep can free a slot: the table
// must stop at maxTenants and shed the rest instead of admitting them on a
// fresh bucket.
func TestAdmissionTableBounded(t *testing.T) {
	a := newAdmission(1)
	now := time.Unix(1000, 0)
	a.now = func() time.Time { return now }
	shed := 0
	for i := 0; i < 2*maxTenants; i++ {
		ok, wait := a.allow(fmt.Sprintf("t%d", i))
		if !ok {
			shed++
			if wait != time.Second {
				t.Fatalf("retry-after for a shed unknown tenant = %v, want 1/rate = 1s", wait)
			}
		}
	}
	a.mu.Lock()
	n := len(a.buckets)
	a.mu.Unlock()
	if n > maxTenants {
		t.Fatalf("bucket table grew to %d, bound is %d", n, maxTenants)
	}
	if shed != maxTenants {
		t.Fatalf("shed %d unknown tenants, want %d", shed, maxTenants)
	}
	// A tenant already in the table is still served from its own bucket.
	now = now.Add(time.Second)
	if ok, _ := a.allow("t0"); !ok {
		t.Fatal("known tenant shed after its bucket refilled")
	}
}

func TestRouteCache(t *testing.T) {
	c := newRouteCache(2)
	c.put(1, []core.ServerID{0, 1})
	if got := c.get(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("get(1) = %v", got)
	}
	// merge unions without duplicating.
	c.merge(1, []core.ServerID{1, 2})
	if got := c.get(1); len(got) != 3 {
		t.Fatalf("after merge get(1) = %v", got)
	}
	// merge is capped at maxCachedServers.
	var many []core.ServerID
	for i := 0; i < 2*maxCachedServers; i++ {
		many = append(many, core.ServerID(i))
	}
	c.merge(1, many)
	if got := c.get(1); len(got) > maxCachedServers {
		t.Fatalf("merge grew entry to %d servers, cap %d", len(got), maxCachedServers)
	}
	// The bound holds: inserting a third key evicts one.
	c.put(2, []core.ServerID{2})
	c.put(3, []core.ServerID{3})
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2 (bounded)", c.len())
	}
	// drop scrubs a server everywhere and deletes emptied entries.
	c2 := newRouteCache(8)
	c2.put(10, []core.ServerID{0, 1})
	c2.put(11, []core.ServerID{1})
	c2.drop(1)
	if got := c2.get(10); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after drop get(10) = %v", got)
	}
	if got := c2.get(11); got != nil {
		t.Fatalf("after drop get(11) = %v, want nil (entry emptied)", got)
	}
}

// waitReady blocks until every upstream has answered a liveness probe — which
// also guarantees the gateway has dialed (and hello'd on) a connection to
// every peer, so any peer can route results back to it. It sends the probes
// itself, one at a time per peer like the prober: a miss leaves the peer's
// miss streak above zero, a hit (or a result from real traffic) clears it.
func waitReady(t *testing.T, g *Gateway) {
	t.Helper()
	waitFor(t, 5*time.Second, "all upstreams probed alive", func() bool {
		for _, u := range g.pool.ups {
			if !u.probing.CompareAndSwap(false, true) {
				return false
			}
			g.probeOnce(u)
			u.probing.Store(false)
			if u.missed.Load() != 0 {
				return false
			}
		}
		return true
	})
}

func TestGatewayLookupBasic(t *testing.T) {
	c := startCluster(t, 3, false, peerSetup{})
	g := c.startGateway(nil)
	waitReady(t, g)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	node := c.ownedNode(1)
	name := c.tree.Name(node)
	res, err := g.LookupName(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("lookup %s failed: %s", name, res.Reason)
	}
	if res.Node != node || res.Name != name {
		t.Fatalf("lookup returned node %d name %q, want %d %q", res.Node, res.Name, node, name)
	}
	if len(res.Servers) == 0 {
		t.Fatal("result carries no replica set")
	}

	// The result fed the routing cache: a repeat lookup is a cache hit.
	if _, err := g.Lookup(ctx, node); err != nil {
		t.Fatal(err)
	}
	snap := g.Registry().Snapshot()
	if snap["terradir_gw_cache_hits_total"] < 1 {
		t.Fatalf("no cache hit on repeat lookup: %v", snap["terradir_gw_cache_hits_total"])
	}

	if _, err := g.LookupName(ctx, "/no/such/name"); err == nil {
		t.Fatal("unknown name did not error")
	}
	if _, err := g.Lookup(ctx, core.NodeID(c.tree.Len())); err == nil {
		t.Fatal("out-of-range node did not error")
	}

	// The gateway's reply frames arrive through the batched FrameReader path:
	// the downstream transport must account for them.
	ts := c.gwTr.Stats()
	if ts.FramesRead == 0 {
		t.Fatal("gateway transport read replies but FramesRead == 0")
	}
	if ts.ReadBatches == 0 || ts.ReadBatches > ts.FramesRead {
		t.Fatalf("ReadBatches = %d out of range (0, FramesRead=%d]", ts.ReadBatches, ts.FramesRead)
	}
}

func TestGatewayWireSurface(t *testing.T) {
	c := startCluster(t, 3, false, peerSetup{})
	g := c.startGateway(func(o *Options) {
		o.AdmissionRate = 1 // burst defaults to 1: second immediate request sheds
	})
	waitReady(t, g)

	// A downstream wire client: its own client-role transport, whose only
	// "peer" is the gateway.
	cl, err := overlay.NewTCPTransportOpts(core.ClientID(1), "127.0.0.1:0",
		map[core.ServerID]string{g.self: g.wire.Addr()},
		overlay.TCPTransportOptions{ClientRole: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	replies := make(chan *core.ResultMsg, 4)
	cl.ServeFunc(func(m core.Message) {
		if r, ok := m.(*core.ResultMsg); ok {
			replies <- r
		}
	})

	node := c.ownedNode(0)
	send := func(qid uint64) {
		t.Helper()
		err := cl.Send(core.ClientID(1), g.self, &core.QueryMsg{
			QueryID:  qid,
			Dest:     node,
			Source:   core.ClientID(1),
			OnBehalf: invalidNode,
			Piggy:    core.Piggyback{From: core.NoServer},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	recv := func() *core.ResultMsg {
		t.Helper()
		select {
		case r := <-replies:
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("no wire reply")
			return nil
		}
	}

	send(42)
	r := recv()
	if r.QueryID != 42 || !r.OK {
		t.Fatalf("wire lookup reply qid=%d ok=%v reason=%s", r.QueryID, r.OK, r.Reason)
	}
	if len(r.Map.Servers) == 0 {
		t.Fatal("wire reply carries no replica set")
	}

	// The bucket is empty now: the next request is shed with FailShed.
	send(43)
	r = recv()
	if r.QueryID != 43 || r.OK || r.Reason != core.FailShed {
		t.Fatalf("expected shed, got qid=%d ok=%v reason=%s", r.QueryID, r.OK, r.Reason)
	}
	snap := g.Registry().Snapshot()
	if snap[`terradir_gw_shed_total{surface="wire"}`] < 1 {
		t.Fatal("wire shed not counted")
	}
}

func TestHTTPAdmissionAndDrain(t *testing.T) {
	c := startCluster(t, 3, false, peerSetup{})
	g := c.startGateway(func(o *Options) {
		o.AdmissionRate = 1
		o.DrainTimeout = 500 * time.Millisecond
	})
	waitReady(t, g)
	addr, err := g.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	name := c.tree.Name(c.ownedNode(0))
	url := fmt.Sprintf("http://%s/lookup?name=%s", addr, name)

	resp, err := cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var body lookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !body.OK {
		t.Fatalf("lookup: status %d ok=%v", resp.StatusCode, body.OK)
	}

	// Token bucket (burst 1) is empty: immediate retry sheds with 429 and a
	// Retry-After hint.
	resp, err = cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Draining: healthz flips to 503 (LB ejection) and lookups are refused.
	g.Drain()
	resp, err = cl.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	resp, err = cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining lookup status %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestCoalesceFlashCrowd(t *testing.T) {
	// 20ms of latency on the peers' outbound path keeps the leader's flight
	// open long enough that a barrier-released crowd piles onto it.
	c := startCluster(t, 3, false, peerSetup{latency: 20 * time.Millisecond})
	g := c.startGateway(func(o *Options) {
		o.HedgeAfter = -1 // no hedging: upstream query count isolates coalescing
	})
	waitReady(t, g)

	before := g.Registry().Snapshot()
	const crowd = 50
	node := c.ownedNode(0)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, crowd)
	var coalesced atomic.Int64
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			res, err := g.Lookup(ctx, node)
			if err != nil {
				errs <- err
				return
			}
			if !res.OK {
				errs <- fmt.Errorf("lookup failed: %s", res.Reason)
				return
			}
			if res.Coalesced {
				coalesced.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	after := g.Registry().Snapshot()
	hits := after["terradir_gw_coalesce_hits_total"] - before["terradir_gw_coalesce_hits_total"]
	upstream := after["terradir_gw_upstream_queries_total"] - before["terradir_gw_upstream_queries_total"]
	flights := after["terradir_gw_flights_total"] - before["terradir_gw_flights_total"]
	t.Logf("crowd=%d coalesce_hits=%g flights=%g upstream_queries=%g", crowd, hits, upstream, flights)
	if hits < 1 {
		t.Fatal("flash crowd produced no coalesce hits")
	}
	if coalesced.Load() < 1 {
		t.Fatal("no result carried the Coalesced flag")
	}
	if upstream >= crowd/2 {
		t.Fatalf("upstream queries %g not ≪ crowd %d", upstream, crowd)
	}
	if hits+flights < crowd {
		t.Fatalf("hits %g + flights %g < crowd %d: requests unaccounted", hits, flights, crowd)
	}
}

// TestGatewayResultsCarryAdvertsNotDigests: a hot node's owner replicates it
// under load, and the results it sends the gateway then carry the new
// replica's advert — which the gateway's cache feeds on — but never a Bloom
// digest: the gateway neither routes nor prunes, so digests would be dead
// weight on every result.
func TestGatewayResultsCarryAdvertsNotDigests(t *testing.T) {
	// At 2 ms of capacity a query the owner saturates at 500 lookups/s.
	c := startCluster(t, 3, false, peerSetup{serviceCost: 2 * time.Millisecond})
	g := c.startGateway(func(o *Options) { o.HedgeAfter = -1 })
	waitReady(t, g)

	var (
		mu      sync.Mutex
		results int
		digests int
		advert  *core.Advert
	)
	for i := range c.faults {
		c.faults[i].SetDropFilter(func(_, to core.ServerID, m core.Message) bool {
			if r, ok := m.(*core.ResultMsg); ok && to == g.self {
				mu.Lock()
				results++
				digests += len(r.Piggy.Digests)
				if advert == nil && len(r.Piggy.Adverts) > 0 {
					a := r.Piggy.Adverts[0]
					advert = &a
				}
				mu.Unlock()
			}
			return false
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	hot := c.ownedNode(0)
	// The owner learns its peers' (idle) loads from the queries they forward
	// it, which is what lets it pick a replication target.
	for _, i := range []int{1, 2} {
		if _, err := c.nodes[i].Lookup(ctx, hot); err != nil {
			t.Fatal(err)
		}
	}
	// Back-to-back lookups keep the owner busy past Thigh; it replicates the
	// node and advertises the replica on the results that follow.
	for seen := false; !seen; {
		if _, err := g.Lookup(ctx, hot); err != nil {
			t.Fatalf("no result carried an advert: %v", err)
		}
		mu.Lock()
		seen = advert != nil
		mu.Unlock()
	}
	mu.Lock()
	n, d, ad := results, digests, *advert
	mu.Unlock()
	if d != 0 {
		t.Fatalf("%d results to the gateway carried %d digests", n, d)
	}
	waitFor(t, 5*time.Second, "the advert in the gateway's cache", func() bool {
		for _, s := range ad.Servers {
			if !slices.Contains(g.cache.get(ad.Node), s) {
				return false
			}
		}
		return true
	})
}
