package gateway

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
)

// scriptedUpstream stands in for the overlay behind a gateway: it answers
// every probe (a query for the root, the default ProbeDest), records every
// other query the gateway sends, and answer (nil: never) decides, as each is
// sent, whether it gets a result. Results reach the
// gateway over a connection of their own, delivered by the gateway
// transport's read loop as a peer's answers are.
type scriptedUpstream struct {
	answer func() bool
	back   *overlay.TCPTransport // dials the gateway's listener as a wire client
	probe  core.NodeID

	mu   sync.Mutex
	sent []*core.QueryMsg
}

func (u *scriptedUpstream) Send(_, _ core.ServerID, m core.Message) error {
	q := m.(*core.QueryMsg)
	if q.Dest == u.probe {
		u.reply(q)
		return nil
	}
	u.mu.Lock()
	u.sent = append(u.sent, q)
	u.mu.Unlock()
	if u.answer != nil && u.answer() {
		u.reply(q)
	}
	return nil
}

func (u *scriptedUpstream) Close() error { return nil }

// reply answers q as the owner, server 1, would: resolved in two hops.
func (u *scriptedUpstream) reply(q *core.QueryMsg) {
	u.back.Send(backID, q.Source, &core.ResultMsg{QueryID: q.QueryID, Dest: q.Dest, OK: true, Hops: 2, Map: core.NodeMap{Servers: []core.ServerID{1, 0}}})
}

func (u *scriptedUpstream) queries() []*core.QueryMsg {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]*core.QueryMsg(nil), u.sent...)
}

// backID is the scripted upstream's client ID on the gateway's listener.
var backID = core.ClientID(1)

// startScripted fronts a scripted two-peer upstream with a gateway.
func startScripted(t *testing.T, answer func() bool) (*Gateway, *scriptedUpstream) {
	t.Helper()
	tr, err := overlay.NewTCPTransportOpts(core.ClientID(0), "127.0.0.1:0", map[core.ServerID]string{}, overlay.TCPTransportOptions{ClientRole: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	back, err := overlay.NewTCPTransportOpts(backID, "127.0.0.1:0", map[core.ServerID]string{core.ClientID(0): tr.Addr()}, overlay.TCPTransportOptions{ClientRole: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tree := namespace.NewBalanced(3, 4)
	up := &scriptedUpstream{answer: answer, back: back, probe: tree.Root()}
	g, err := New(Options{
		Tree:  tree,
		Self:  core.ClientID(0),
		Peers: []core.ServerID{0, 1},
		Wire:  tr,
		Send:  up,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.Close()
		back.Close()
		tr.Close()
	})
	return g, up
}

// TestFlightPacing: one timer paces a flight's hedge, its retries and its
// deadline. Against an upstream that answers nothing but probes, a flight
// sends its primary, a hedge after hedgeMin (nothing observed yet) and then
// a retry every overlay.LookupInterval — overlay.LookupAttempts in all, every
// paced one counted as a fired hedge — then times out at
// overlay.LookupTimeout. The production schedule puts every retry inside the
// budget.
func TestFlightPacing(t *testing.T) {
	t.Run("retry inside the budget", func(t *testing.T) {
		g, up := startScripted(t, nil)
		start := time.Now()
		_, err := g.Lookup(context.Background(), 5)
		took := time.Since(start)
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("lookup against a silent upstream returned %v, want a timeout", err)
		}
		if took < overlay.LookupTimeout || took > overlay.LookupTimeout+time.Second {
			t.Fatalf("flight timed out after %s, want overlay.LookupTimeout %s", took, overlay.LookupTimeout)
		}
		qs := up.queries()
		if len(qs) != overlay.LookupAttempts {
			t.Fatalf("flight sent %d attempts, want %d", len(qs), overlay.LookupAttempts)
		}
		snap := g.Registry().Snapshot()
		if snap["terradir_gw_hedge_fired_total"] != overlay.LookupAttempts-1 || snap["terradir_gw_lookup_timeouts_total"] != 1 {
			t.Fatalf("hedge_fired %g timeouts %g, want %d and 1",
				snap["terradir_gw_hedge_fired_total"], snap["terradir_gw_lookup_timeouts_total"], overlay.LookupAttempts-1)
		}
	})
}

// TestCoalescedWaitersGetLeaderResult: 64 callers of one destination, some
// joining while the leader's attempt is out and some racing the leader as it
// finishes (the test holds the flight table while the leader's answer
// lands), all get the leader's result. With no early joiner the flight has
// no done channel until a late one makes it.
func TestCoalescedWaitersGetLeaderResult(t *testing.T) {
	for _, early := range []int{32, 0} {
		// The leader's attempts go unanswered until the test answers its
		// first by hand; from then on every query is answered at once, so a
		// caller that arrives after the leader has left the table leads a
		// flight of its own, answered at once.
		var open atomic.Bool
		g, up := startScripted(t, open.Load)

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		const node = core.NodeID(7)
		results := make(chan Result, 64+1)
		errs := make(chan error, 64+1)
		lookup := func() {
			res, err := g.Lookup(ctx, node)
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}
		var wg sync.WaitGroup
		var started atomic.Int64
		run := func(n int) {
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					started.Add(1)
					lookup()
				}()
			}
		}
		run(1) // the leader
		waitFor(t, 2*time.Second, "the leader's attempt", func() bool { return len(up.queries()) > 0 })
		run(early)
		waitFor(t, 2*time.Second, "the early waiters", func() bool {
			return g.Registry().Snapshot()["terradir_gw_coalesce_hits_total"] == float64(early)
		})

		g.fmu.Lock()
		open.Store(true)
		up.reply(up.queries()[0])
		waitFor(t, 2*time.Second, "the leader's answer", func() bool { return g.m.latency.Count() == 1 })
		run(64 - early)
		waitFor(t, 2*time.Second, "the late callers", func() bool { return started.Load() == 65 })
		g.fmu.Unlock()
		wg.Wait()
		cancel()
		close(results)
		close(errs)
		for err := range errs {
			t.Fatalf("early=%d: %v", early, err)
		}
		n := 0
		for res := range results {
			n++
			if !res.OK || res.Node != node || res.Hops != 2 || len(res.Servers) != 2 || res.Servers[0] != 1 {
				t.Fatalf("early=%d: a caller got %+v, not the leader's answer", early, res)
			}
		}
		if n != 65 {
			t.Fatalf("early=%d: %d results for 65 callers", early, n)
		}
		g.fmu.Lock()
		left := len(g.flights)
		g.fmu.Unlock()
		if left != 0 {
			t.Fatalf("early=%d: %d flights outstanding", early, left)
		}
	}
}

// TestGatewayLookupAllocs pins what one gateway lookup costs the process:
// a warmed lookup of a cached node over loopback TCP — the gateway's flight,
// the peers' handling and both wire directions — allocates at most 13
// objects. The prober runs as in production, so a probe round that lands
// inside the measurement counts too; the armed hedge is never due on
// loopback.
func TestGatewayLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector multiplies allocations")
	}
	c := startCluster(t, 3, false, peerSetup{})
	g := c.startGateway(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	node := c.ownedNode(1)
	lookup := func() {
		res, err := g.Lookup(ctx, node)
		if err != nil || !res.OK {
			t.Fatalf("lookup: %+v, %v", res, err)
		}
	}
	for i := 0; i < 200; i++ {
		lookup()
	}
	if n := testing.AllocsPerRun(500, lookup); n > 13 {
		t.Fatalf("a gateway lookup allocates %.1f objects, want at most 13", n)
	} else {
		t.Logf("%.2f allocations per lookup", n)
	}
}
