package core

import (
	"slices"
	"testing"

	"terradir/internal/bloom"
)

func TestPurgeServerScrubsAllState(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u/pub"]}, 1, DefaultConfig(), &fakeEnv{})
	const dead = ServerID(2)

	// Seed every soft-state structure with references to the doomed server.
	hn := p.hosted[ids["/u/pub"]]
	hn.selfMap.AddRegular(dead, p.cfg.MapSize)
	nbShared := ids["/u"] // neighbor map that also names the live server 1
	p.neighborMaps[nbShared].m.AddRegular(dead, p.cfg.MapSize)
	nbOnly := ids["/u/pub/people"] // neighbor map naming only the dead server
	p.neighborMaps[nbOnly].m = SingleServerMap(dead)
	p.cache.Put(ids["/u/priv"], SingleServerMap(dead)) // empties → evicted
	mixed := SingleServerMap(1)
	mixed.AddRegular(dead, p.cfg.MapSize)
	p.cache.Put(ids["/u/priv/people"], mixed) // survives with 1
	p.storeDigest(dead, bloom.New(64, 2))
	p.recordLoad(dead, 0.5)
	p.recentAdverts = append(p.recentAdverts,
		advertRecord{node: ids["/u/priv"], servers: []ServerID{dead}},
		advertRecord{node: ids["/u/priv/people"], servers: []ServerID{1, dead}})
	if len(p.digestList) != 1 || p.KnownLoadCount() != 1 {
		t.Fatal("test seeding failed")
	}

	purged := p.PurgeServer(dead, func(NodeID) ServerID { return 3 })
	if purged == 0 {
		t.Fatal("PurgeServer removed nothing")
	}
	if hn.selfMap.Contains(dead) || !hn.selfMap.Contains(0) {
		t.Error("self map not scrubbed (or lost self)")
	}
	if m := p.neighborMaps[nbShared].m; m.Contains(dead) || !m.Contains(1) {
		t.Error("shared neighbor map not scrubbed correctly")
	}
	// The emptied neighbor map must be reseeded from the post-handoff owner.
	if m := p.neighborMaps[nbOnly].m; !m.Contains(3) || m.Contains(dead) {
		t.Errorf("emptied neighbor map not reseeded: %v", m)
	}
	if p.cache.Peek(ids["/u/priv"]) != nil {
		t.Error("emptied cache entry not evicted")
	}
	if m := p.cache.Peek(ids["/u/priv/people"]); m == nil || m.Contains(dead) || !m.Contains(1) {
		t.Error("mixed cache entry wrongly scrubbed")
	}
	if len(p.digests) != 0 || len(p.digestList) != 0 {
		t.Error("dead server's digest survived")
	}
	if p.KnownLoadCount() != 0 || len(p.knownLoadKeys) != 0 {
		t.Error("dead server's load record survived")
	}
	if len(p.recentAdverts) != 1 || p.recentAdverts[0].servers[0] != 1 {
		t.Errorf("adverts not filtered: %+v", p.recentAdverts)
	}
	if s := p.StatsView(); s.ServerPurges != 1 || s.PurgedEntries != int64(purged) {
		t.Error("purge stats not recorded")
	}

	// Self and the no-server sentinel are never purge targets.
	if p.PurgeServer(p.ID, nil) != 0 || p.PurgeServer(NoServer, nil) != 0 {
		t.Error("purge of self or NoServer must be a no-op")
	}
}

func TestAdoptAndReleaseOwnership(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u/pub"]}, 1, DefaultConfig(), &fakeEnv{})
	ownerOf := func(NodeID) ServerID { return 1 }
	target := ids["/u/priv"]

	// Fresh adoption of a node we do not host.
	if !p.AdoptOwnership(target, ownerOf) {
		t.Fatal("fresh adoption rejected")
	}
	if !p.Hosts(target) || p.OwnedCount() != 2 || p.AdoptedCount() != 1 {
		t.Fatalf("after adopt: hosts=%v owned=%d adopted=%d",
			p.Hosts(target), p.OwnedCount(), p.AdoptedCount())
	}
	if !p.hosted[target].selfMap.Contains(0) {
		t.Error("adopted node's self map lacks self")
	}
	if p.hosted[target].hasData {
		t.Error("fresh adoption must not fabricate application data")
	}
	// Idempotent: adopting an already-owned node is a no-op.
	if p.AdoptOwnership(target, ownerOf) {
		t.Error("double adoption reported a change")
	}

	// Release demotes back to a plain replica, keeping the warm routing state.
	if !p.ReleaseOwnership(target) {
		t.Fatal("release rejected")
	}
	if p.OwnedCount() != 1 || p.AdoptedCount() != 0 || !p.HostsReplica(target) {
		t.Fatalf("after release: owned=%d adopted=%d replica=%v",
			p.OwnedCount(), p.AdoptedCount(), p.HostsReplica(target))
	}

	// Promoting that replica in place works and is reversible again.
	if !p.AdoptOwnership(target, ownerOf) {
		t.Fatal("replica promotion rejected")
	}
	if p.AdoptedCount() != 1 || !p.Hosts(target) || p.HostsReplica(target) {
		t.Error("replica promotion left inconsistent state")
	}
	if !p.ReleaseOwnership(target) {
		t.Fatal("second release rejected")
	}

	// Original ownership is never releasable; unknown nodes are no-ops.
	if p.ReleaseOwnership(ids["/u/pub"]) {
		t.Error("released originally owned node")
	}
	if p.ReleaseOwnership(ids["/u/priv/people/staff"]) {
		t.Error("released a node we never hosted")
	}
	if s := p.StatsView(); s.OwnershipAdopts != 2 || s.OwnershipReleases != 2 {
		t.Errorf("adoption stats = %d/%d, want 2/2", s.OwnershipAdopts, s.OwnershipReleases)
	}
}

// TestAdoptionJournalsOnlyTheReplica checks that provisional ownership writes
// nothing to the journal: replay never restores an adoption, so a record of
// one (or of its release) would replay as a no-op. A fresh adoption journals
// the one upsert that replays as a plain replica.
func TestAdoptionJournalsOnlyTheReplica(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u/pub"]}, 1, DefaultConfig(), &fakeEnv{})
	var kinds []MutationKind
	p.SetJournal(func(mu *HostedMutation) { kinds = append(kinds, mu.Kind) })
	ownerOf := func(NodeID) ServerID { return 1 }
	target := ids["/u/priv"]
	if !p.AdoptOwnership(target, ownerOf) || !p.ReleaseOwnership(target) ||
		!p.AdoptOwnership(target, ownerOf) || !p.ReleaseOwnership(target) {
		t.Fatal("adopt/release sequence rejected")
	}
	if !slices.Equal(kinds, []MutationKind{MutUpsert}) {
		t.Fatalf("journaled %v, want only the fresh adoption's upsert", kinds)
	}
}

func TestBuildWarmupAndLearnMaps(t *testing.T) {
	tree, ids := paperTree()
	src := newTestPeer(t, tree, 0, []NodeID{ids["/u/pub"], ids["/u/pub/people"]}, 1,
		DefaultConfig(), &fakeEnv{})

	entries := src.BuildWarmup(10)
	if len(entries) != 2 {
		t.Fatalf("warmup carries %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if !e.Map.Contains(0) {
			t.Errorf("warmup map for node %d omits the sender", e.Node)
		}
	}
	if got := src.BuildWarmup(1); len(got) != 1 {
		t.Errorf("bounded warmup returned %d entries, want 1", len(got))
	}
	if src.BuildWarmup(0) != nil {
		t.Error("warmup with max 0 must be nil")
	}

	// A cold peer absorbs the stream into its cache and can route by it.
	dst := newTestPeer(t, tree, 5, []NodeID{ids["/u/priv"]}, 1, DefaultConfig(), &fakeEnv{})
	before := dst.CacheLen()
	dst.LearnMaps(entries)
	if dst.CacheLen() <= before {
		t.Fatalf("warmup learned nothing: cache %d → %d", before, dst.CacheLen())
	}
	if m := dst.mapFor(ids["/u/pub"]); m == nil || !m.Contains(0) {
		t.Error("warmed-up map for /u/pub missing the source server")
	}
}
