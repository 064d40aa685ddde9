package core

import (
	"testing"

	"terradir/internal/bloom"
	"terradir/internal/rng"
)

func TestNewPeerValidation(t *testing.T) {
	tree, _ := paperTree()
	env := &fakeEnv{}
	cfg := DefaultConfig()
	cfg.MapSize = 0
	if _, err := NewPeer(0, tree, cfg, env, rng.New(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewPeer(0, nil, DefaultConfig(), env, rng.New(1)); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := NewPeer(0, tree, DefaultConfig(), nil, rng.New(1)); err == nil {
		t.Fatal("nil env accepted")
	}
	if _, err := NewPeer(0, tree, DefaultConfig(), env, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestPeerOwnershipAndNeighbors(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u/pub"], ids["/u/pub/people"]}, 1, DefaultConfig(), env)
	if p.OwnedCount() != 2 || p.ReplicaCount() != 0 {
		t.Fatalf("owned=%d replicas=%d", p.OwnedCount(), p.ReplicaCount())
	}
	if !p.Hosts(ids["/u/pub"]) || p.Hosts(ids["/u/priv"]) {
		t.Fatal("Hosts wrong")
	}
	if p.HostsReplica(ids["/u/pub"]) {
		t.Fatal("owned node reported as replica")
	}
	// Neighbor maps must exist for parent and children of owned nodes.
	for _, nb := range []NodeID{ids["/u"], ids["/u/pub/people/faculty"], ids["/u/pub/people/students"]} {
		if m := p.mapFor(nb); m == nil || !m.Contains(1) {
			t.Fatalf("neighbor map for %d missing or wrong: %v", nb, m)
		}
	}
	// The shared neighbor (/u/pub/people is both child-of-pub and owned):
	// owned wins, and its self map contains self.
	if m := p.mapFor(ids["/u/pub/people"]); m == nil || !m.Contains(0) {
		t.Fatal("owned self map missing self")
	}
}

func TestAddOwnedIdempotent(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	if p.OwnedCount() != 1 {
		t.Fatalf("duplicate AddOwned counted: %d", p.OwnedCount())
	}
}

func TestEffLoadClamps(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{load: 0.5}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), env)
	p.loadBias = 2
	if got := p.effLoad(); got != 1 {
		t.Fatalf("effLoad = %v, want clamp to 1", got)
	}
	p.loadBias = -2
	if got := p.effLoad(); got != 0 {
		t.Fatalf("effLoad = %v, want clamp to 0", got)
	}
}

func TestWeightDecay(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{now: 10}
	cfg := DefaultConfig()
	cfg.WeightHalfLife = 2
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, cfg, env)
	hn := p.hosted[ids["/u"]]
	p.touchNode(hn)
	p.touchNode(hn)
	if w := p.NodeWeight(ids["/u"]); w != 2 {
		t.Fatalf("weight = %v, want 2", w)
	}
	env.now = 12 // one half-life later
	if w := p.NodeWeight(ids["/u"]); w < 0.99 || w > 1.01 {
		t.Fatalf("decayed weight = %v, want ≈1", w)
	}
	// Touch after decay: 1 (decayed) + 1.
	p.touchNode(hn)
	if w := p.NodeWeight(ids["/u"]); w < 1.99 || w > 2.01 {
		t.Fatalf("weight after decayed touch = %v, want ≈2", w)
	}
	if p.NodeWeight(ids["/u/pub"]) != 0 {
		t.Fatal("unhosted node has weight")
	}
}

func TestMaintainDecaysBias(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), env)
	p.loadBias = -0.4
	p.Maintain()
	if p.loadBias != -0.2 {
		t.Fatalf("bias = %v, want -0.2", p.loadBias)
	}
	for i := 0; i < 20; i++ {
		p.Maintain()
	}
	if p.loadBias != 0 {
		t.Fatalf("bias did not snap to zero: %v", p.loadBias)
	}
}

func TestDigestReflectsHostedSet(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"]}, 1, DefaultConfig(), &fakeEnv{})
	d := p.Digest()
	if !d.Test(NodeKey(ids["/u"])) || !d.Test(NodeKey(ids["/u/pub"])) {
		t.Fatal("digest missing hosted nodes")
	}
	if d.Version() == 0 {
		t.Fatal("digest version not bumped at setup")
	}
}

func TestDigestImmutableSnapshots(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), env)
	before := p.Digest()
	v := before.Version()
	p.digestDirty = true
	p.Maintain()
	after := p.Digest()
	if before == after {
		t.Fatal("rebuild reused the published filter")
	}
	if after.Version() != v+1 {
		t.Fatalf("version = %d, want %d", after.Version(), v+1)
	}
}

func TestStoreDigestKeepsNewest(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	old := bloom.New(64, 2)
	old.SetVersion(5)
	newer := bloom.New(64, 2)
	newer.SetVersion(6)
	p.storeDigest(7, old)
	p.storeDigest(7, newer)
	if p.digests[7].filter.Version() != 6 {
		t.Fatal("newer digest not kept")
	}
	p.storeDigest(7, old) // stale: ignored
	if p.digests[7].filter.Version() != 6 {
		t.Fatal("stale digest overwrote newer")
	}
}

func TestStoreDigestCapacityEviction(t *testing.T) {
	tree, ids := paperTree()
	cfg := DefaultConfig()
	cfg.MaxDigests = 4
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, cfg, &fakeEnv{})
	for s := ServerID(1); s <= 10; s++ {
		f := bloom.New(64, 2)
		f.SetVersion(1)
		p.storeDigest(s, f)
	}
	if len(p.digests) != 4 || len(p.digestList) != 4 {
		t.Fatalf("digest table size %d, want 4", len(p.digests))
	}
}

func TestStoreDigestIgnoresSelfAndNil(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	p.storeDigest(0, bloom.New(64, 2)) // self
	p.storeDigest(3, nil)
	if len(p.digests) != 0 {
		t.Fatal("self or nil digest stored")
	}
}

func TestRecordLoadBoundedTable(t *testing.T) {
	tree, ids := paperTree()
	cfg := DefaultConfig()
	cfg.MaxKnownLoads = 8
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, cfg, &fakeEnv{})
	for s := ServerID(1); s <= 50; s++ {
		p.recordLoad(s, 0.5)
	}
	if p.KnownLoadCount() != 8 {
		t.Fatalf("table size %d, want 8", p.KnownLoadCount())
	}
	// Updates of resident entries must not evict.
	for s := range p.knownLoads {
		p.recordLoad(s, 0.9)
		if p.knownLoads[s] != 0.9 {
			t.Fatal("update failed")
		}
		break
	}
	if p.KnownLoadCount() != 8 {
		t.Fatal("update changed table size")
	}
}

func TestSetMetaOwnerOnly(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	if !p.SetMeta(ids["/u"], map[string]string{"k": "v"}) {
		t.Fatal("owner could not set meta")
	}
	if p.SetMeta(ids["/u/pub"], nil) {
		t.Fatal("non-hosted meta update accepted")
	}
	m, ok := p.MetaOf(ids["/u"])
	if !ok || m.Version != 1 || m.Attrs["k"] != "v" {
		t.Fatalf("meta = %+v", m)
	}
	if _, ok := p.MetaOf(ids["/u/priv"]); ok {
		t.Fatal("MetaOf returned meta for unhosted node")
	}
}

func TestMetaCloneIsolation(t *testing.T) {
	var m Meta
	m.Attrs = map[string]string{"a": "1"}
	c := m.Clone()
	c.Attrs["a"] = "2"
	if m.Attrs["a"] != "1" {
		t.Fatal("Clone shares attrs map")
	}
}

func TestAbsorbAdvertCreatesAndPins(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	// Unknown node: advert creates a cache entry with advertised status.
	a := Advert{Node: ids["/u/priv/people"], Servers: []ServerID{5, 6}}
	p.absorbAdvert(&a)
	m := p.cache.Peek(ids["/u/priv/people"])
	if m == nil || !m.Contains(5) || !m.Contains(6) || m.NumAdvertised != 2 {
		t.Fatalf("advert cache entry wrong: %+v", m)
	}
	// Known node (neighbor): advert pins into the neighbor map.
	b := Advert{Node: ids["/u/pub"], Servers: []ServerID{9}}
	p.absorbAdvert(&b)
	nm := p.mapFor(ids["/u/pub"])
	if !nm.Contains(9) || nm.Servers[0] != 9 {
		t.Fatalf("advert not pinned in neighbor map: %+v", nm)
	}
}

func TestAbsorbAdvertSkipsSelfOnly(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	a := Advert{Node: ids["/u/priv/people"], Servers: []ServerID{0}} // only self
	p.absorbAdvert(&a)
	if p.cache.Len() != 0 {
		t.Fatal("self-only advert cached")
	}
}

func TestLearnMapPurgesStaleSelf(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	incoming := NodeMap{Servers: []ServerID{0, 3}} // claims we host /u/priv — we don't
	p.learnMap(ids["/u/priv/people/staff"], &incoming)
	m := p.cache.Peek(ids["/u/priv/people/staff"])
	if m == nil {
		t.Fatal("map not cached")
	}
	if m.Contains(0) {
		t.Fatal("stale self entry survived")
	}
	if p.StatsView().StaleSelfPurged != 1 {
		t.Fatalf("StaleSelfPurged = %d", p.StatsView().StaleSelfPurged)
	}
}

func TestLearnMapMergesIntoHosted(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	incoming := NodeMap{Servers: []ServerID{4}}
	p.learnMap(ids["/u"], &incoming)
	m := p.mapFor(ids["/u"])
	if !m.Contains(4) || !m.Contains(0) {
		t.Fatalf("hosted merge wrong: %+v", m)
	}
}

func TestLearnMapCachingDisabled(t *testing.T) {
	tree, ids := paperTree()
	cfg := DefaultConfig()
	cfg.CachingEnabled = false
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, cfg, &fakeEnv{})
	incoming := NodeMap{Servers: []ServerID{4}}
	p.learnMap(ids["/u/priv/people"], &incoming)
	if p.CacheLen() != 0 {
		t.Fatal("cache populated with caching disabled")
	}
}

func TestOutgoingMapIncludesSelfAndBounded(t *testing.T) {
	tree, ids := paperTree()
	cfg := DefaultConfig()
	cfg.MapSize = 3
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, cfg, &fakeEnv{})
	for s := ServerID(2); s <= 6; s++ {
		p.hosted[ids["/u"]].selfMap.AddRegular(s, 3)
	}
	m := p.outgoingMap(ids["/u"])
	if m.Len() > 3 {
		t.Fatalf("outgoing map exceeds Msize: %+v", m)
	}
	if !m.Contains(0) {
		t.Fatalf("outgoing map of hosted node missing self: %+v", m)
	}
	if got := p.outgoingMap(ids["/u/priv/people"]); got.Len() != 0 {
		t.Fatalf("outgoing map for unknown node: %+v", got)
	}
}

func TestEvictReplicaRefusesOwned(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	if p.evictReplica(ids["/u"]) {
		t.Fatal("owned node evicted")
	}
	if p.evictReplica(ids["/u/pub"]) {
		t.Fatal("unhosted node evicted")
	}
}

func TestMaintainEvictsAgedReplicas(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{}
	cfg := DefaultConfig()
	cfg.ReplicaEvictAge = 10
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, cfg, env)
	pl := ReplicaPayload{
		Node:       ids["/u/priv"],
		SelfMap:    SingleServerMap(1),
		WeightHint: 1,
		Neighbors: []NeighborMap{
			{Node: ids["/u"], Map: SingleServerMap(1)},
			{Node: ids["/u/priv/people"], Map: SingleServerMap(1)},
		},
	}
	if !p.installReplica(&pl, 1) {
		t.Fatal("install failed")
	}
	if p.ReplicaCount() != 1 {
		t.Fatal("replica not installed")
	}
	evicted := false
	p.Hooks.OnReplicaEvicted = func(n NodeID) { evicted = n == ids["/u/priv"] }
	env.now = 5
	p.Maintain()
	if p.ReplicaCount() != 1 {
		t.Fatal("replica evicted too early")
	}
	env.now = 20
	p.Maintain()
	if p.ReplicaCount() != 0 || !evicted {
		t.Fatal("aged replica not evicted")
	}
	// Its exclusive neighbor map must be cleaned up; the shared one (/u is
	// also a neighbor? /u is owned) must survive as owned state.
	if _, ok := p.neighborMaps[ids["/u/priv/people"]]; ok {
		t.Fatal("replica's neighbor map leaked")
	}
}

func TestPiggybackAdvertExpiry(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), env)
	p.recentAdverts = append(p.recentAdverts, advertRecord{node: ids["/u"], servers: []ServerID{3}, created: 0})
	pb := p.piggyback()
	if len(pb.Adverts) != 1 {
		t.Fatalf("fresh advert not attached: %+v", pb.Adverts)
	}
	env.now = advertTTL + 1
	pb = p.piggyback()
	if len(pb.Adverts) != 0 {
		t.Fatal("expired advert still attached")
	}
}

// TestBatchTickAmortizesAdvertSweep: after BatchTick, piggyback skips the
// in-place compaction of the advert list for advertSweepSlack, but what it
// EMITS is always TTL-filtered — sweep timing is a memory optimization,
// never visible on the wire.
func TestBatchTickAmortizesAdvertSweep(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), env)
	p.recentAdverts = append(p.recentAdverts, advertRecord{node: ids["/u"], servers: []ServerID{3}, created: 0})
	env.now = advertTTL - 0.01
	p.BatchTick()
	if len(p.recentAdverts) != 1 {
		t.Fatal("BatchTick swept a live advert")
	}
	if pb := p.piggyback(); len(pb.Adverts) != 1 {
		t.Fatal("live advert not emitted")
	}
	// Just past the TTL but inside the sweep slack: the expired advert is
	// still resident (compaction amortized) yet never rides a message.
	env.now = advertTTL + 0.01
	if pb := p.piggyback(); len(pb.Adverts) != 0 {
		t.Fatalf("expired advert rode a piggyback: %+v", pb.Adverts)
	}
	if len(p.recentAdverts) != 1 {
		t.Fatal("compaction ran inside the slack window (amortization broken)")
	}
	// Past the slack: the per-message sweep resumes and compacts it away.
	env.now = advertTTL - 0.01 + advertSweepSlack + 0.01
	if pb := p.piggyback(); len(pb.Adverts) != 0 {
		t.Fatalf("expired advert survived past the slack: %+v", pb.Adverts)
	}
	if len(p.recentAdverts) != 0 {
		t.Fatal("expired advert not compacted after the slack")
	}
}

func TestPiggybackIncludesOwnDigest(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	pb := p.piggyback()
	if len(pb.Digests) == 0 || pb.Digests[0].Server != 0 {
		t.Fatalf("own digest not first: %+v", pb.Digests)
	}
	if pb.From != 0 {
		t.Fatal("piggyback From wrong")
	}
}

func TestDigestSaysPermissiveWhenUnknown(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	if !p.digestSays(42, ids["/u/priv"]) {
		t.Fatal("unknown server should be permissive")
	}
	// Self: exact.
	if !p.digestSays(0, ids["/u"]) || p.digestSays(0, ids["/u/priv"]) {
		t.Fatal("self digest answer wrong")
	}
}

func TestDigestSaysUsesStoredFilter(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	f := bloom.New(64, 10)
	f.Add(NodeKey(ids["/u/priv"]))
	f.SetVersion(1)
	p.storeDigest(9, f)
	if !p.digestSays(9, ids["/u/priv"]) {
		t.Fatal("stored digest positive missed")
	}
	if p.digestSays(9, ids["/u/pub/people"]) {
		t.Fatal("stored digest negative not honored")
	}
}

func TestOracleOverridesDigests(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	p.OracleHosts = func(n NodeID) []ServerID {
		if n == ids["/u/priv"] {
			return []ServerID{3}
		}
		return nil
	}
	if !p.digestSays(3, ids["/u/priv"]) || p.digestSays(4, ids["/u/priv"]) {
		t.Fatal("oracle answers wrong")
	}
	if !p.digestSaysHosts(3, ids["/u/priv"]) || p.digestSaysHosts(3, ids["/u/pub"]) {
		t.Fatal("oracle affirmative answers wrong")
	}
}

func TestRankHostedOrdering(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"], ids["/u/priv"]}, 1, DefaultConfig(), env)
	for i := 0; i < 3; i++ {
		p.touchNode(p.hosted[ids["/u/pub"]])
	}
	p.touchNode(p.hosted[ids["/u"]])
	ranked := p.rankHosted()
	if ranked[0].id != ids["/u/pub"] || ranked[1].id != ids["/u"] || ranked[2].id != ids["/u/priv"] {
		t.Fatalf("ranking wrong: %v %v %v", ranked[0].id, ranked[1].id, ranked[2].id)
	}
}
