package core

// This file is the peer's churn-repair surface: everything the overlay's
// membership subsystem needs to keep routing state consistent when servers
// die, take over a dead peer's partition, or join. All methods follow the
// peer's single-threaded discipline — the overlay invokes them from the
// node's event loop, never concurrently with message handling.

// PurgeServer removes every soft-state reference to server s: entries in
// hosted self-maps and neighbor maps, cached maps (empty survivors are
// dropped), s's stored digest, its gossiped-load record, and pending replica
// adverts naming it. Neighbor maps left empty are reseeded from ownerOf (the
// post-handoff effective owner) so routing context never dangles; ownerOf may
// be nil to skip reseeding. It returns how many references were removed.
//
// This is the paper's soft-state repair applied eagerly on a failure signal:
// the same stale entries would age out lazily, but a detected death lets us
// drop them all at once instead of paying misroutes until they do.
func (p *Peer) PurgeServer(s ServerID, ownerOf func(NodeID) ServerID) int {
	if s == p.ID || s == NoServer {
		return 0
	}
	purged := 0
	p.pub.stale = true // pending adverts, the rider's, may name s
	// A death is rare and touches every map: all of them are marked for
	// republication, changed or not.
	for _, hn := range p.hostedList {
		if m := p.editSelfMap(hn); m.Remove(s) {
			purged++
			p.ensureSelf(m)
		}
	}
	for nb, e := range p.neighborMaps {
		m := p.editNeighborMap(e)
		if m.Remove(s) {
			purged++
		}
		if m.Len() == 0 && ownerOf != nil {
			if o := ownerOf(nb); o != NoServer {
				*m = SingleServerMap(o)
			}
		}
	}
	// lruCache.Each must not mutate the cache: collect emptied entries during
	// the walk (in-place map edits are fine), delete them after.
	var emptied []NodeID
	p.cache.Each(func(node NodeID, m *NodeMap) {
		if m.Remove(s) {
			purged++
			if m.Len() == 0 {
				emptied = append(emptied, node)
			}
		}
	})
	for _, nd := range emptied {
		p.cache.Delete(nd)
	}
	if e, ok := p.digests[s]; ok {
		p.pub.digests = true
		delete(p.digests, s)
		for i, d := range p.digestList {
			if d == e {
				p.digestList = append(p.digestList[:i], p.digestList[i+1:]...)
				break
			}
		}
		purged++
	}
	if _, ok := p.knownLoads[s]; ok {
		delete(p.knownLoads, s)
		for i, k := range p.knownLoadKeys {
			if k == s {
				last := len(p.knownLoadKeys) - 1
				p.knownLoadKeys[i] = p.knownLoadKeys[last]
				p.knownLoadKeys = p.knownLoadKeys[:last]
				break
			}
		}
		purged++
	}
	kept := p.recentAdverts[:0]
	for _, a := range p.recentAdverts {
		srv := a.servers[:0]
		for _, v := range a.servers {
			if v != s {
				srv = append(srv, v)
			}
		}
		if len(srv) < len(a.servers) {
			purged++
		}
		a.servers = srv
		if len(a.servers) > 0 {
			kept = append(kept, a)
		}
	}
	p.recentAdverts = kept
	p.led.inc(ctrServerPurges)
	p.led[ctrPurgedEntries].Add(int64(purged))
	return purged
}

// AdoptOwnership makes this peer the acting owner of node after its assigned
// owner died: a hosted replica is promoted in place (it already has the data
// model's replicated state), otherwise a fresh owned entry is created with
// routing context seeded from ownerOf. Adopted ownership is provisional —
// ReleaseOwnership undoes it when the original owner returns — and carries no
// application data (hasData stays false for fresh adoptions: only the real
// owner ever held it). It reports whether the hosting set changed state.
func (p *Peer) AdoptOwnership(node NodeID, ownerOf func(NodeID) ServerID) bool {
	if hn, ok := p.hosted[node]; ok {
		if hn.owned {
			return false
		}
		hn.owned = true
		hn.adopted = true
		p.ownedCount++
		p.ensureSelf(p.editSelfMap(hn))
		p.markDirty(hn)
		p.led.inc(ctrOwnershipAdopts)
		return true
	}
	hn := &hostedNode{
		id:       node,
		owned:    true,
		adopted:  true,
		selfMap:  SingleServerMap(p.ID),
		lastUsed: p.env.Now(),
		ref:      true,
	}
	p.addHosted(hn)
	p.ownedCount++
	if p.cold != nil {
		// A cold replica of this node supersedes nothing durable: the fresh
		// adopted entry is journaled, so drop the disk-only marker.
		p.cold.clear(node)
	}
	p.initNeighbors(hn, ownerOf)
	p.digestDirty = true
	p.journalUpsert(hn)
	p.led.inc(ctrOwnershipAdopts)
	return true
}

// ReleaseOwnership demotes an adopted node back to a plain replica once its
// assigned owner is alive again. Original (non-adopted) ownership is never
// released. The replica is kept rather than dropped — it is warm routing
// state — and ages out through the normal eviction path if unused. It
// reports whether a demotion happened.
func (p *Peer) ReleaseOwnership(node NodeID) bool {
	hn, ok := p.hosted[node]
	if !ok || !hn.owned || !hn.adopted {
		return false
	}
	hn.owned = false
	hn.adopted = false
	hn.hasData = false
	hn.data = nil
	p.ownedCount--
	p.markDirty(hn)
	p.led.inc(ctrOwnershipReleases)
	return true
}

// AdoptedCount returns how many hosted nodes are provisionally owned through
// handoff.
func (p *Peer) AdoptedCount() int {
	n := 0
	for _, hn := range p.hostedList {
		if hn.adopted {
			n++
		}
	}
	return n
}

// BuildWarmup snapshots up to max hosted-map entries, heaviest-ranked first
// — the replica advertisements a joining server warms its cache from. Every
// map is a bounded clone with self guaranteed, exactly what outgoing path
// entries carry.
func (p *Peer) BuildWarmup(max int) []PathEntry {
	if max <= 0 {
		return nil
	}
	ranked := p.rankHosted()
	if len(ranked) > max {
		ranked = ranked[:max]
	}
	out := make([]PathEntry, 0, len(ranked))
	for _, hn := range ranked {
		out = append(out, PathEntry{Node: hn.id, Map: p.outgoingMap(hn.id)})
	}
	return out
}

// LearnMaps absorbs a warmup stream: each entry merges into whatever map the
// peer keeps for the node, creating cache entries otherwise — the same
// path-propagation learning rule queries use.
func (p *Peer) LearnMaps(entries []PathEntry) {
	p.absorbPath(entries)
}
