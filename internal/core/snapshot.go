package core

// This file implements the routing snapshot behind the overlay's lock-free
// lookup fast path. The peer (single-writer, driven by its event loop)
// publishes a RouteSnapshot of its routing-read state; any number of reader
// goroutines then resolve, fail, or forward queries directly on the snapshot
// without entering the loop. The decision itself is routing.go's, shared with
// the loop; this file is its second executor. Everything the fast path cannot
// do immutably — rider absorption, path caching, map pruning, the per-query
// replication trigger — is either diverted back to the loop (FastAbsorb) or
// declined entirely (FastFallback), keeping the core single-writer by design.
//
// Publication is incremental: its cost follows what changed since the last
// publish, not what is hosted. The loop keeps, beside each live hosted node,
// neighbor map and cache slot, the frozen copy it last published, and marks an
// entry stale where its meta or map is written. Those writes go through
// editSelfMap, editNeighborMap, markDirty and the lruCache methods, which do
// the marking, so a write cannot skip it; set membership changes through
// addHosted/dropHosted/demoteToCold and addNeighbor/releaseNeighbors. A publish
// re-freezes the stale entries only, rebuilds a lookup container only when its
// key set changed, and shares the rest with the previous snapshot. With nothing
// changed it is a no-op.
//
// Concurrency contract — what "snapshot" guarantees:
//   - A frozen value (a frozenHosted, a neighbor's published NodeMap, a frozen
//     cache or digest table, the rider) is never written after it is published.
//     Maps and filters inside it are clones, or immutable originals for Bloom
//     digests, shared by pointer with outgoing messages under the read-only
//     convention the loop already uses for digests.
//   - A snapshot is NOT a point-in-time image of the whole view. Its lookup
//     containers (hosted set, order and closest-hosted index, neighbor key
//     set) are those of the publish that built it — copies, never written
//     afterwards — but they hold the live hostedNode and neighborMapEntry
//     cells, whose frozen value sits behind an atomic pointer the loop swaps
//     on every later publish. A reader holding an older
//     snapshot therefore sees each entry at its latest published value: every
//     entry is atomic in itself, entries may be of different publishes. Soft
//     state tolerates this by construction — every map is possibly stale and
//     incomplete (§3.7) and the decision reads each cell once.
//   - Publish-before-learnPub: PublishSnapshot stores every refreshed cell and
//     then the snapshot pointer, all sequentially consistent atomics, before
//     it returns. A driver that advances its "published" mark after the call
//     guarantees that a reader who observes the mark finds the learning in
//     whatever snapshot it loads next.
//   - Readers share nothing mutable with the loop but those cell pointers, the
//     cold bitmap, and the per-node atomic touch counters, which the loop
//     folds into the real weights (foldFastTouches).
//   - Counters the loop records in Peer.Stats are mirrored by atomic
//     fastStats; StatsView returns the combined view.
//   - The rotating digest-scan window, which the loop drives with a shared
//     cursor, is derived from the query ID instead.

import (
	"maps"
	"math"
	"sync/atomic"

	"terradir/internal/rng"
)

// FastOutcome classifies what the snapshot fast path did with a query.
type FastOutcome uint8

const (
	// FastFallback: the decision needed a mutation (map pruning) or the
	// snapshot is unusable; the caller must run the query through the loop.
	FastFallback FastOutcome = iota
	// FastResolved: this server hosted the destination and answered.
	FastResolved
	// FastForwarded: the query was forwarded to the chosen next hop.
	FastForwarded
	// FastFailed: the lookup was terminated (TTL exceeded or no route).
	FastFailed
)

// fastStats mirrors the Peer.Stats fields the fast path would otherwise
// update. The loop owns Stats; these atomics are the off-loop ledger, folded
// together by StatsView.
type fastStats [numRouteCounters]atomic.Int64

func (f *fastStats) bump(c routeCounter) { f[c].Add(1) }

// frozenHosted is the published answer for one hosted node. outgoing is the
// bounded map the loop would build with outgoingMap; like digests, it is
// immutable once published and shared by pointer with outgoing messages
// (receivers treat incoming maps as read-only — see NodeMap.Merge).
type frozenHosted struct {
	meta     Meta
	outgoing NodeMap
}

// RouteSnapshot is a published view of a peer's routing-read state (see the
// contract above). Safe for unsynchronized use from any goroutine.
type RouteSnapshot struct {
	view  routeView
	piggy Piggyback // prebuilt immutable rider attached to every send

	stats *fastStats
	tel   *peerTelemetry
}

// fastSeq perturbs per-call RNG seeds so concurrent fast-path decisions with
// the same query ID still draw distinct streams.
var fastSeq atomic.Uint64

// pubState is the loop's record of what changed since the last publish. Marks
// are O(1), allocate nothing and draw no randomness: the simulator runs the
// same mutation paths and must not notice them.
type pubState struct {
	// tracking is set by the first publish: until then nothing is recorded
	// per entry, because that publish freezes everything anyway (and a peer
	// that never publishes — the simulator's — must not accumulate lists).
	tracking bool
	// What changed. With none of these set (and the cache and own digest
	// clean, which keep their own flags) a publish is a no-op.
	stale   bool // an entry's meta or map, or something the rider reports
	members bool // the hosted or neighbor key set
	digests bool // the foreign digest table

	hosted    *hostedNode       // stale hosted nodes, linked through nextStale
	neighbors *neighborMapEntry // stale neighbor maps, likewise
}

// staleHosted records that hn's published copy is out of date.
func (p *Peer) staleHosted(hn *hostedNode) {
	p.pub.stale = true
	if p.pub.tracking && !hn.stale {
		hn.stale, hn.nextStale, p.pub.hosted = true, p.pub.hosted, hn
	}
}

// staleNeighbor records that e's published copy is out of date.
func (p *Peer) staleNeighbor(e *neighborMapEntry) {
	p.pub.stale = true
	if p.pub.tracking && !e.stale {
		e.stale, e.nextStale, p.pub.neighbors = true, p.pub.neighbors, e
	}
}

// editSelfMap returns hn's self-map for writing. Every write to a hosted
// node's map after its construction goes through here (metadata writes
// through markDirty), which is what keeps its published copy current.
func (p *Peer) editSelfMap(hn *hostedNode) *NodeMap {
	p.staleHosted(hn)
	return &hn.selfMap
}

// editNeighborMap returns e's map for writing; see editSelfMap.
func (p *Peer) editNeighborMap(e *neighborMapEntry) *NodeMap {
	p.staleNeighbor(e)
	return &e.m
}

func (p *Peer) freezeHosted(hn *hostedNode) {
	out := hn.selfMap.Clone() // as outgoingMap builds it for a hosted node
	p.ensureSelf(&out)
	out.Truncate(p.cfg.MapSize)
	hn.pub.Store(&frozenHosted{meta: hn.meta.Clone(), outgoing: out})
	hn.stale = false
}

func (p *Peer) freezeNeighbor(e *neighborMapEntry) {
	m := e.m.Clone()
	e.pub.Store(&m)
	e.stale = false
}

// PublishSnapshot brings the published RouteSnapshot up to date with the
// peer's routing-read state, at a cost proportional to what changed since the
// last call; with nothing changed it does nothing. Loop context only (it reads
// and may tidy mutable state — digest rebuild, advert expiry). Peers with an
// OnForwardStep hook publish nil: the hook observes forwarding decisions and
// is not safe to call concurrently, so such peers stay loop-only.
func (p *Peer) PublishSnapshot() {
	if p.Hooks.OnForwardStep != nil {
		p.snap.Store(nil)
		p.pub.tracking = false
		return
	}
	prev := p.snap.Load()
	full := prev == nil || !p.pub.tracking
	if !full && !p.pub.stale && !p.pub.members && !p.pub.digests && !p.cache.stale && !p.digestDirty {
		return
	}
	var start float64
	if p.tel != nil {
		start = p.env.Now()
	}
	// Scalars, tree, cold bitmap and oracle carry over as they
	// are; every container the loop mutates is replaced by a frozen one.
	s := &RouteSnapshot{view: p.routeView, stats: &p.fast, tel: p.tel}
	s.piggy = p.piggyback() // loop context; also rebuilds a dirty digest
	v := &s.view
	v.frozen = true

	// Entries first, containers second: a container rebuilt below must find
	// every member's cell filled.
	refrozen := 0
	if full {
		for _, hn := range p.hostedList {
			p.freezeHosted(hn)
		}
		for _, e := range p.neighborMaps {
			p.freezeNeighbor(e)
		}
		refrozen = len(p.hostedList) + len(p.neighborMaps)
	} else {
		// A listed entry may have left the peer since it was marked; freezing
		// it once more is harmless, and older snapshots may still hold it.
		for hn := p.pub.hosted; hn != nil; {
			p.freezeHosted(hn)
			hn, hn.nextStale = hn.nextStale, nil
			refrozen++
		}
		for e := p.pub.neighbors; e != nil; {
			p.freezeNeighbor(e)
			e, e.nextStale = e.nextStale, nil
			refrozen++
		}
	}

	if full || p.pub.members {
		v.hostedList = append([]*hostedNode(nil), p.hostedList...)
		v.index = p.index.clone()
		v.neighborMaps = maps.Clone(p.neighborMaps)
	} else {
		pv := &prev.view
		v.hostedList, v.index, v.neighborMaps = pv.hostedList, pv.index, pv.neighborMaps
	}
	if full || p.cache.stale {
		var recloned int
		v.cache, recloned = p.cache.frozen()
		refrozen += recloned
	} else {
		v.cache = prev.view.cache
	}
	if full || p.pub.digests {
		// Digest entries are refreshed in place by the loop: copy them (the
		// filters themselves are immutable and shared).
		entries := make([]digestEntry, len(p.digestList))
		v.digestList = make([]*digestEntry, len(entries))
		v.digests = make(map[ServerID]*digestEntry, len(entries))
		for i, e := range p.digestList {
			entries[i] = *e
			v.digestList[i] = &entries[i]
			v.digests[e.server] = &entries[i]
		}
	} else {
		v.digests, v.digestList = prev.view.digests, prev.view.digestList
	}
	p.pub = pubState{tracking: true}
	p.snap.Store(s)
	if p.tel != nil {
		p.tel.publishes.Inc()
		p.tel.publishDirty.Observe(float64(refrozen))
		p.tel.publishSeconds.Observe(p.env.Now() - start)
	}
}

// RoutingSnapshot returns the most recently published snapshot, or nil when
// none has been published (or the peer is hook-bound to the loop). Safe from
// any goroutine.
func (p *Peer) RoutingSnapshot() *RouteSnapshot { return p.snap.Load() }

// FastAbsorb ingests the rider and path of a query the fast path served, and
// runs the per-query replication trigger the loop would have run. Loop
// context only — the driver enqueues it behind the fast-path send.
func (p *Peer) FastAbsorb(pb Piggyback, path []PathEntry) {
	p.absorbPiggy(&pb)
	p.absorbPath(path)
	p.afterQuery()
}

// StatsView returns the peer's counters with fast-path contributions folded
// in. Loop-owned fields are read without synchronization — monitoring-grade,
// same contract as overlay.Snapshot.
func (p *Peer) StatsView() Stats {
	s := p.Stats
	for c := range p.fast {
		*s.routeCounter(routeCounter(c)) += p.fast[c].Load()
	}
	return s
}

// foldFastTouches drains the per-node atomic touch counters into the real
// weight/recency fields, charging them at the current time. Loop context
// only; called before any weight-ranked decision and on each Maintain tick.
func (p *Peer) foldFastTouches() {
	now := p.env.Now()
	for _, hn := range p.hostedList {
		n := hn.fastTouch.Swap(0)
		if n == 0 {
			continue
		}
		hn.ref = true
		if hn.weightT > 0 && now > hn.weightT {
			hn.weight *= math.Exp2(-(now - hn.weightT) / p.cfg.WeightHalfLife)
		}
		hn.weight += float64(n)
		hn.weightT = now
		hn.lastUsed = now
	}
}

// HandleQueryFast attempts to serve q entirely on the snapshot: the off-loop
// executor of the routing decision. send transmits outgoing messages (safe
// for concurrent use); absorb, when non-nil, receives the query's rider and a
// private copy of its path for loop-side ingestion — it is invoked exactly
// once for any outcome other than FastFallback, before q.Path is mutated. On
// FastFallback nothing has been sent or absorbed and the caller must run q
// through the loop.
//
// The NodeMap argument is ignored. It is kept only so existing callers
// compile, and goes when they are updated.
func (s *RouteSnapshot) HandleQueryFast(q *QueryMsg, now float64, _ NodeMap, send func(ServerID, Message), absorb func(Piggyback, []PathEntry)) FastOutcome {
	v := &s.view
	if v.cold.has(q.Dest) {
		// Hosted here, but on disk: the loop parks the query and a loader
		// goroutine materializes the entry — never blocking this path.
		// Checked before the resident map: a snapshot published before the
		// demotion still holds the entry, and serving from it would race the
		// eviction.
		return FastFallback
	}
	d, final := v.decide(q)
	if !final {
		var src rng.Source
		src.Seed(q.QueryID ^ uint64(uint32(v.self))<<32 ^ fastSeq.Add(0x9e3779b97f4a7c15))
		d = v.route(q, d, &src, q.QueryID*7, nil, 0)
		if d.kind == routeUnusable {
			// The loop prunes the candidate and retries; the fast path has no
			// mutation budget, so it declines.
			return FastFallback
		}
	}
	if absorb != nil {
		var path []PathEntry
		if len(q.Path) > 0 {
			path = append([]PathEntry(nil), q.Path...)
		}
		absorb(q.Piggy, path)
	}
	if hn := d.charged(); hn != nil {
		hn.fastTouch.Add(1)
	}
	if d.dest != nil {
		d.dest.fastTouch.Add(1)
	}
	d.tally(q, s.stats, s.tel)
	v.emit(q, &d, now, s, send)
	return FastOutcome(d.kind)
}

func (s *RouteSnapshot) rider(digests bool) Piggyback {
	pb := s.piggy
	if !digests {
		pb.Digests = nil
	}
	return pb
}

func (s *RouteSnapshot) outgoingMap(node NodeID) NodeMap {
	return s.view.residentNode(node).pub.Load().outgoing
}

func (s *RouteSnapshot) answer(hn *hostedNode) (Meta, NodeMap) {
	f := hn.pub.Load()
	return f.meta.Clone(), f.outgoing
}
