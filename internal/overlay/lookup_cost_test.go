package overlay

import (
	"context"
	"testing"
	"time"

	"terradir/internal/core"
)

// TestLookupGossipsNoPhantomServer: a lookup's own query has no sender, so
// serving it must not record a load for server 0 (or anyone) in the
// initiator's gossiped-load table — §3.3's least-loaded pick would probe that
// phantom first.
func TestLookupGossipsNoPhantomServer(t *testing.T) {
	c := startLocal(t, 3, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dest := core.NodeID(-1)
	for nd := 0; nd < c.Tree().Len(); nd++ {
		if c.OwnerOf(core.NodeID(nd)) == 1 {
			dest = core.NodeID(nd)
			break
		}
	}
	if res, err := c.Lookup(ctx, 1, dest); err != nil || !res.OK {
		t.Fatalf("lookup of a hosted node: %+v, %v", res, err)
	}
	known := -1
	c.Node(1).Inspect(func(p *core.Peer) { known = p.KnownLoadCount() })
	if known != 0 {
		t.Fatalf("serving its own lookup left %d entries in the gossiped-load table, want 0", known)
	}
}

// TestLookupSteadyStateAllocs bounds what a warmed lookup of a remote node
// allocates, end to end across initiator, owner and the way back: the
// queries, the result, the path and the caller's copy of the host list —
// learning that changes nothing allocates nothing.
func TestLookupSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c := startLocal(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dest := core.NodeID(-1)
	for nd := 0; nd < c.Tree().Len(); nd++ {
		if c.OwnerOf(core.NodeID(nd)) != 0 {
			dest = core.NodeID(nd)
			break
		}
	}
	for i := 0; i < 2*c.Tree().Len(); i++ {
		if _, err := c.Lookup(ctx, i%4, core.NodeID(i%c.Tree().Len())); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func() {
		if res, err := c.Lookup(ctx, 0, dest); err != nil || !res.OK || res.Hops == 0 {
			t.Fatalf("remote lookup: %+v, %v", res, err)
		}
	}
	for i := 0; i < 100; i++ {
		lookup()
	}
	n := testing.AllocsPerRun(1000, lookup)
	t.Logf("%.2f allocations per lookup", n)
	if n > 8 {
		t.Fatalf("a steady-state remote lookup allocated %.1f objects, want <= 8", n)
	}
}
