package overlay

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
)

// TestLoadIsServedQueriesTimesCost pins the live load definition (DESIGN.md
// §10) on both executors. A server that served k queries in the current
// window Ω reads k × ServiceCost / Ω: n lookups served on the fast path read
// n × ServiceCost / Ω at the owner, and n more held onto the owner's event
// loop add exactly as much. Every server on the route reads its own serve
// count times the cost, so the source, upstream of the owner on an inline
// LocalTransport route, is not charged for the hops its sends ran
// downstream. A count has no jitter: the tolerance, 1e-9, only absorbs
// float rounding.
func TestLoadIsServedQueriesTimesCost(t *testing.T) {
	// Each run must fit in one window on every node; one that straddles a
	// boundary blends in the previous window and is retried on a fresh
	// cluster.
	for attempt := 1; !loadEquivalenceRun(t); attempt++ {
		if attempt == 3 {
			t.Fatal("three runs straddled a load window")
		}
	}
}

func loadEquivalenceRun(t *testing.T) (sameWindow bool) {
	const (
		servers = 4
		n       = 60 // per executor; 2n serves at 1 ms read 0.24, under Thigh
		cost    = time.Millisecond
		tol     = 1e-9
	)
	c, err := NewLocalCluster(testTree(), LocalClusterOptions{
		Servers: servers, Seed: 11,
		Node: Options{ServiceCost: cost, QueueCap: 2 * n},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	const hot = core.NodeID(200)
	owner := c.Node(int(c.OwnerOf(hot)))
	src := (int(owner.ID()) + 1) % servers

	window := func(nd *Node) int { return int(time.Since(nd.epoch) / loadWindow) }
	// Start early in a window on every node (their epochs differ by the
	// microseconds between their constructions).
	waitFor(t, 5*time.Second, func() bool {
		for i := 0; i < servers; i++ {
			if time.Since(c.Node(i).epoch)%loadWindow > loadWindow/4 {
				return false
			}
		}
		return true
	})
	start := make([]int, servers)
	for i := range start {
		start[i] = window(c.Node(i))
	}
	read := func(nd *Node) (load, served float64) {
		nd.inspect(false, func(*core.Peer) { load = nd.load() })
		return load, snapshotPrefix(nd.Registry().Snapshot(), "terradir_service_seconds_count")
	}
	perServe := cost.Seconds() / loadWindow.Seconds()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lookup := func() {
		if res, err := c.Lookup(ctx, src, hot); err != nil || !res.OK {
			t.Errorf("lookup: %v %+v", err, res)
		}
	}
	for i := 0; i < n; i++ {
		lookup()
	}
	fastOwner, _ := read(owner)

	// The next n queue on the owner's loop: a pending learning closes its
	// fast path.
	release := holdLoop(owner)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lookup()
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return len(owner.queries) == n })
	release()
	wg.Wait()
	loads := make([]float64, servers)
	served := make([]float64, servers)
	for i := range loads {
		loads[i], served[i] = read(c.Node(i))
	}
	for i := range start {
		if window(c.Node(i)) != start[i] {
			return false
		}
	}

	if math.Abs(fastOwner-n*perServe) > tol {
		t.Errorf("owner after %d fast-path serves reads %v, want %v", n, fastOwner, n*perServe)
	}
	o := int(owner.ID())
	if fast := snapshotPrefix(owner.Registry().Snapshot(), "terradir_fastpath_resolved_total"); fast != n {
		t.Errorf("owner resolved %v on the fast path, want %d (the held %d on the loop)", fast, n, n)
	}
	if served[o] != 2*n || math.Abs(loads[o]-2*n*perServe) > tol {
		t.Errorf("owner served %v and reads %v after %d fast and %d loop serves, want %v",
			served[o], loads[o], n, n, 2*n*perServe)
	}
	if served[src] < 2*n {
		t.Errorf("source served %v, want >= %d (it initiates every lookup)", served[src], 2*n)
	}
	for i := range loads {
		if want := served[i] * perServe; math.Abs(loads[i]-want) > tol {
			t.Errorf("server %d served %v queries and reads %v, want %v: charged beyond its own serves",
				i, served[i], loads[i], want)
		}
	}
	return true
}
