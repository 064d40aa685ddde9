package core

import (
	"testing"

	"terradir/internal/namespace"
)

// wideNet builds a mini net over an arity-4 tree (non-binary fanout).
func wideNet(t *testing.T, cfg Config) (*miniNet, *namespace.Tree) {
	tree := namespace.NewBalanced(4, 4) // 85 nodes
	own := make([][]NodeID, 5)
	for i := 0; i < tree.Len(); i++ {
		s := i % 5
		own[s] = append(own[s], NodeID(i))
	}
	return newMiniNet(t, tree, own, cfg), tree
}

func TestRoutingWideTreeAllPairs(t *testing.T) {
	n, tree := wideNet(t, DefaultConfig())
	for src := ServerID(0); src < 5; src++ {
		for d := 0; d < tree.Len(); d += 3 {
			res := n.lookup(src, NodeID(d))
			if res == nil || !res.OK {
				t.Fatalf("lookup %d->%d failed: %+v", src, d, res)
			}
		}
	}
}

func TestRoutingZeroCacheSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSlots = 0 // caching "enabled" but no capacity
	n, tree := wideNet(t, cfg)
	res := n.lookup(0, NodeID(tree.Len()-1))
	if res == nil || !res.OK {
		t.Fatalf("lookup failed: %+v", res)
	}
	for _, p := range n.peers {
		if p.CacheLen() != 0 {
			t.Fatal("cache grew despite zero slots")
		}
	}
}

func TestRoutingZeroPathEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPathEntries = 0 // unbounded per extendPath's documented contract
	n, tree := wideNet(t, cfg)
	res := n.lookup(1, NodeID(tree.Len()-2))
	if res == nil || !res.OK {
		t.Fatalf("lookup failed: %+v", res)
	}
}

func TestRoutingMapSizeOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MapSize = 1
	n, tree := wideNet(t, cfg)
	for d := 0; d < tree.Len(); d += 7 {
		res := n.lookup(2, NodeID(d))
		if res == nil || !res.OK {
			t.Fatalf("lookup ->%d failed with Msize=1: %+v", d, res)
		}
	}
}

func TestRoutingSingleServerOwnsAll(t *testing.T) {
	tree := namespace.NewBalanced(2, 5)
	own := [][]NodeID{nil}
	for i := 0; i < tree.Len(); i++ {
		own[0] = append(own[0], NodeID(i))
	}
	n := newMiniNet(t, tree, own, DefaultConfig())
	res := n.lookup(0, NodeID(tree.Len()-1))
	if res == nil || !res.OK || res.Hops != 0 {
		t.Fatalf("self-resolution failed: %+v", res)
	}
}

func TestRoutingDeterministicAcrossRuns(t *testing.T) {
	run := func() []int {
		n, tree := wideNet(t, DefaultConfig())
		var hops []int
		for d := 0; d < tree.Len(); d += 5 {
			res := n.lookup(ServerID(d%5), NodeID(d))
			hops = append(hops, res.Hops)
		}
		return hops
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hop counts diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestForwardStatsConsistency(t *testing.T) {
	n, tree := wideNet(t, DefaultConfig())
	for d := 0; d < tree.Len(); d += 2 {
		n.lookup(ServerID(d%5), NodeID(d))
	}
	var total Stats
	for _, p := range n.peers {
		s := p.StatsView()
		total.Forwarded += s.Forwarded
		total.CacheHits += s.CacheHits
		total.ContextHops += s.ContextHops
		total.DigestShortcuts += s.DigestShortcuts
	}
	if total.Forwarded != total.CacheHits+total.ContextHops+total.DigestShortcuts {
		t.Fatalf("forward mix inconsistent: fwd=%d cache=%d ctx=%d digest=%d",
			total.Forwarded, total.CacheHits, total.ContextHops, total.DigestShortcuts)
	}
}

func TestWeightChargedOnStaleOnBehalf(t *testing.T) {
	// A query arriving on behalf of a node we do not host must charge the
	// closest hosted node instead (routing work is real either way).
	tree, ids := paperTree()
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u/pub"]}, 1, DefaultConfig(), env)
	q := &QueryMsg{
		QueryID:  1,
		Dest:     ids["/u/priv/people"],
		Source:   2,
		OnBehalf: ids["/u/priv"], // not hosted here
		Hops:     1,
	}
	p.HandleQuery(q)
	if w := p.NodeWeight(ids["/u/pub"]); w <= 0 {
		t.Fatalf("closest hosted node not charged: %v", w)
	}
}
