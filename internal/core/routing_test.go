package core

import (
	"testing"

	"terradir/internal/namespace"
)

// fig1Net builds a 5-server mini cluster over the paper-Fig.1 namespace with
// a meaningful ownership split.
func fig1Net(t *testing.T, cfg Config) (*miniNet, map[string]NodeID) {
	tree, ids := paperTree()
	own := make([][]NodeID, 5)
	own[0] = []NodeID{ids["/u"]}
	own[1] = []NodeID{ids["/u/pub"], ids["/u/pub/people"]}
	own[2] = []NodeID{ids["/u/priv"], ids["/u/priv/people"]}
	own[3] = []NodeID{ids["/u/pub/people/faculty"], ids["/u/pub/people/students"],
		ids["/u/pub/people/faculty/John"], ids["/u/pub/people/students/Steve"]}
	own[4] = []NodeID{ids["/u/priv/people/staff"], ids["/u/priv/people/students"],
		ids["/u/priv/people/staff/Ann"], ids["/u/priv/people/students/Lisa"], ids["/u/priv/people/students/Mary"]}
	return newMiniNet(t, tree, own, cfg), ids
}

func TestRouteResolvesAcrossHierarchy(t *testing.T) {
	n, ids := fig1Net(t, DefaultConfig())
	res := n.lookup(3, ids["/u/priv/people/students/Mary"])
	if res == nil || !res.OK {
		t.Fatalf("lookup failed: %+v", res)
	}
	if res.Hops < 1 {
		t.Fatalf("suspicious hop count %d", res.Hops)
	}
	if res.Map.Len() == 0 {
		t.Fatal("result carries no mapping")
	}
	if !res.Map.Contains(4) {
		t.Fatalf("mapping should include the owner: %+v", res.Map)
	}
}

func TestRouteLocalResolution(t *testing.T) {
	n, ids := fig1Net(t, DefaultConfig())
	res := n.lookup(4, ids["/u/priv/people/staff/Ann"])
	if res == nil || !res.OK || res.Hops != 0 {
		t.Fatalf("local lookup: %+v", res)
	}
}

func TestEveryPairResolves(t *testing.T) {
	// Exhaustive: every (source, dest) pair on the cold system resolves.
	n, _ := fig1Net(t, DefaultConfig())
	for src := ServerID(0); src < 5; src++ {
		for dest := 0; dest < n.tree.Len(); dest++ {
			res := n.lookup(src, NodeID(dest))
			if res == nil || !res.OK {
				t.Fatalf("lookup %d->%d failed: %+v", src, dest, res)
			}
		}
	}
}

func TestRoutingIncrementalProgressColdSystem(t *testing.T) {
	// On a cold system (no caches yet) every hop must make progress and hop
	// counts are bounded by the namespace distance from the source's
	// closest owned node.
	cfg := DefaultConfig()
	cfg.CachingEnabled = false
	cfg.DigestsEnabled = false
	cfg.ReplicationEnabled = false
	n, ids := fig1Net(t, cfg)
	res := n.lookup(3, ids["/u/priv/people/students/Mary"])
	if res == nil || !res.OK {
		t.Fatalf("lookup failed: %+v", res)
	}
	// John(depth4) .. Mary: distance ≤ 8; with a hop per namespace step the
	// bound is that distance.
	if res.Hops > 8 {
		t.Fatalf("cold route took %d hops", res.Hops)
	}
}

func TestPathPropagationPopulatesCaches(t *testing.T) {
	n, ids := fig1Net(t, DefaultConfig())
	res := n.lookup(3, ids["/u/priv/people/students/Mary"])
	if res == nil || !res.OK {
		t.Fatal("lookup failed")
	}
	// The source must now have a cached (or otherwise known) map for the
	// destination (§2.4: source caches the whole path incl. destination).
	src := n.peers[3]
	m := src.mapFor(ids["/u/priv/people/students/Mary"])
	if m == nil || !m.Contains(4) {
		t.Fatalf("source did not cache the destination: %v", m)
	}
	// Second lookup should use it and be shorter or equal.
	res2 := n.lookup(3, ids["/u/priv/people/students/Mary"])
	if res2.Hops > res.Hops {
		t.Fatalf("warm lookup longer than cold: %d > %d", res2.Hops, res.Hops)
	}
	if res2.Hops != 1 {
		t.Fatalf("warm lookup should be a single hop via cached dest, got %d", res2.Hops)
	}
}

func TestEndpointOnlyCachingStillCachesEndpoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PathPropagation = false
	n, ids := fig1Net(t, cfg)
	res := n.lookup(3, ids["/u/priv/people/students/Mary"])
	if res == nil || !res.OK {
		t.Fatal("lookup failed")
	}
	src := n.peers[3]
	if m := src.mapFor(ids["/u/priv/people/students/Mary"]); m == nil {
		t.Fatal("endpoint caching lost the destination")
	}
	// Intermediate nodes must NOT have been propagated: the result path has
	// at most source + destination entries.
	if len(res.Path) > 2 {
		t.Fatalf("endpoint-only path has %d entries", len(res.Path))
	}
}

func TestCachingDisabledNoCacheEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachingEnabled = false
	n, ids := fig1Net(t, cfg)
	n.lookup(3, ids["/u/priv/people/students/Mary"])
	for i, p := range n.peers {
		if p.CacheLen() != 0 {
			t.Fatalf("peer %d cached %d entries with caching disabled", i, p.CacheLen())
		}
	}
}

func TestTTLFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHops = 1
	n, ids := fig1Net(t, cfg)
	res := n.lookup(3, ids["/u/priv/people/students/Mary"]) // needs >1 hop
	if res == nil || res.OK {
		t.Fatalf("expected TTL failure, got %+v", res)
	}
	if res.Reason != FailTTL {
		t.Fatalf("reason = %v", res.Reason)
	}
}

func TestMaxHopsBoundsPathLen(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPathEntries = 2
	n, ids := fig1Net(t, cfg)
	res := n.lookup(3, ids["/u/priv/people/students/Mary"])
	if res == nil || !res.OK {
		t.Fatal("lookup failed")
	}
	if len(res.Path) > 3 { // 2 in-flight + final destination entry
		t.Fatalf("path length %d exceeds bound", len(res.Path))
	}
}

func TestDigestShortcutTaken(t *testing.T) {
	// Prime server 3 with server 2's digest; a lookup towards /u/priv/...
	// should shortcut directly to server 2 (which hosts /u/priv and
	// /u/priv/people) rather than climbing to the root.
	cfg := DefaultConfig()
	cfg.CachingEnabled = false // isolate the digest mechanism
	n, ids := fig1Net(t, cfg)
	p3 := n.peers[3]
	p3.storeDigest(2, n.peers[2].Digest())
	res := n.lookup(3, ids["/u/priv/people/students/Mary"])
	if res == nil || !res.OK {
		t.Fatal("lookup failed")
	}
	if p3.StatsView().DigestShortcuts == 0 {
		t.Fatal("no digest shortcut recorded")
	}
	// Shortcut jumps straight into the private subtree: at most 3 hops
	// (3 -> 2 -> 4 or similar), versus ≥5 without.
	if res.Hops > 3 {
		t.Fatalf("shortcut route took %d hops", res.Hops)
	}
}

func TestDigestShortcutDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DigestsEnabled = false
	n, ids := fig1Net(t, cfg)
	p3 := n.peers[3]
	p3.storeDigest(2, n.peers[2].Digest())
	n.lookup(3, ids["/u/priv/people/students/Mary"])
	if p3.StatsView().DigestShortcuts != 0 {
		t.Fatal("digest shortcut taken while disabled")
	}
	if len(p3.digests) != 0 {
		t.Fatal("digest stored while disabled")
	}
}

func TestStaleReplicaRouteRecovers(t *testing.T) {
	// Install a replica at server 3, let server 1 learn of it, then evict it
	// — queries routed via the stale map entry must still resolve.
	cfg := DefaultConfig()
	n, ids := fig1Net(t, cfg)
	mary := ids["/u/priv/people/students/Mary"]
	pl := n.peers[4].buildPayload(n.peers[4].hosted[mary])
	pl.WeightHint = 5
	if !n.peers[3].installReplica(&pl, 4) {
		t.Fatal("install failed")
	}
	// Server 1 learns the (soon stale) map.
	stale := NodeMap{Servers: []ServerID{3}}
	n.peers[1].learnMap(mary, &stale)
	n.peers[3].evictReplica(mary)
	res := n.lookup(1, mary)
	if res == nil || !res.OK {
		t.Fatalf("stale-route lookup failed: %+v", res)
	}
}

func TestQueryToRootFromEverywhere(t *testing.T) {
	n, ids := fig1Net(t, DefaultConfig())
	for src := ServerID(0); src < 5; src++ {
		res := n.lookup(src, ids["/u"])
		if res == nil || !res.OK {
			t.Fatalf("root lookup from %d failed", src)
		}
	}
}

func TestResultMetaDelivered(t *testing.T) {
	n, ids := fig1Net(t, DefaultConfig())
	mary := ids["/u/priv/people/students/Mary"]
	n.peers[4].SetMeta(mary, map[string]string{"type": "student"})
	res := n.lookup(1, mary)
	if res == nil || !res.OK {
		t.Fatal("lookup failed")
	}
	if res.Meta.Attrs["type"] != "student" || res.Meta.Version != 1 {
		t.Fatalf("meta not delivered: %+v", res.Meta)
	}
}

func TestOnBehalfWeightAccounting(t *testing.T) {
	n, ids := fig1Net(t, DefaultConfig())
	mary := ids["/u/priv/people/students/Mary"]
	before := n.peers[4].NodeWeight(mary)
	n.lookup(1, mary)
	after := n.peers[4].NodeWeight(mary)
	if after <= before {
		t.Fatalf("destination weight did not grow: %v -> %v", before, after)
	}
}

func TestLoadGossipPropagates(t *testing.T) {
	n, ids := fig1Net(t, DefaultConfig())
	n.envs[3].load = 0.9
	n.lookup(3, ids["/u/priv/people/students/Mary"])
	// Some server along the path must now know server 3's load.
	known := 0
	for i, p := range n.peers {
		if i == 3 {
			continue
		}
		if load, ok := p.knownLoads[3]; ok && load > 0.8 {
			known++
		}
	}
	if known == 0 {
		t.Fatal("no peer learned the sender's load")
	}
}

func TestHandleResultCachesMapping(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	res := &ResultMsg{
		QueryID: 1,
		Dest:    ids["/u/priv/people"],
		OK:      true,
		Map:     NodeMap{Servers: []ServerID{2, 5}},
		Path: []PathEntry{
			{Node: ids["/u/priv"], Map: SingleServerMap(2)},
		},
		Piggy: Piggyback{From: 2, Load: 0.3},
	}
	p.HandleResult(res)
	if m := p.mapFor(ids["/u/priv/people"]); m == nil || !m.Contains(2) {
		t.Fatal("result mapping not learned")
	}
	if m := p.mapFor(ids["/u/priv"]); m == nil {
		t.Fatal("result path not learned")
	}
}

func TestNoRouteFailure(t *testing.T) {
	// A peer with no context at all (single server owning everything is
	// impossible to fail; instead: unknown dest with empty candidate maps).
	tree, ids := paperTree()
	cfg := DefaultConfig()
	cfg.CachingEnabled = false
	cfg.DigestsEnabled = false
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, cfg, env)
	// Cripple the peer: empty every neighbor map.
	for _, e := range p.neighborMaps {
		e.m = NodeMap{}
	}
	q := &QueryMsg{QueryID: 9, Dest: ids["/u/priv/people"], Source: 0, OnBehalf: namespace.Invalid}
	p.HandleQuery(q)
	msgs := env.take()
	if len(msgs) != 1 {
		t.Fatalf("want 1 result, got %d messages", len(msgs))
	}
	r, ok := msgs[0].msg.(*ResultMsg)
	if !ok || r.OK || r.Reason != FailNoRoute {
		t.Fatalf("expected no-route failure, got %+v", msgs[0].msg)
	}
}
