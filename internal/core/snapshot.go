package core

// This file implements the copy-on-write routing snapshot behind the overlay's
// lock-free lookup fast path. The peer (single-writer, driven by its event
// loop) periodically publishes an immutable RouteSnapshot of its routing-read
// state; any number of reader goroutines then resolve, fail, or forward
// queries directly on the snapshot without entering the loop. The decision
// itself is routing.go's, shared with the loop; this file is its second
// executor. Everything the fast path cannot do immutably — rider absorption,
// path caching, map pruning, the per-query replication trigger — is either
// diverted back to the loop (FastAbsorb) or declined entirely (FastFallback),
// keeping the core single-writer by design.
//
// Concurrency contract:
//   - A published snapshot is never mutated. Maps and filters inside it are
//     frozen clones (or immutable originals, for Bloom digests), shared by
//     pointer with outgoing messages under the same read-only convention the
//     loop already uses for digests.
//   - Weight/recency accounting ("touches") is accumulated in per-node atomic
//     counters and folded into the real weights by the loop (foldFastTouches).
//   - Counters the loop records in Peer.Stats are mirrored by atomic
//     fastStats; StatsView returns the combined view.
//   - The rotating digest-scan window, which the loop drives with a shared
//     cursor, is derived from the query ID instead, so concurrent readers
//     share no state at all.

import (
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

// snapHosted is the frozen answer for one hosted node. outgoing is the
// bounded map the loop would build with outgoingMap; like digests, it is
// immutable once published and shared by pointer with outgoing messages
// (receivers treat incoming maps as read-only — see NodeMap.Merge).
type snapHosted struct {
	node     *hostedNode // the live node: id and fastTouch only
	meta     Meta
	outgoing NodeMap
}

// RouteSnapshot is an immutable copy of a peer's routing-read state. Safe for
// unsynchronized use from any goroutine.
type RouteSnapshot struct {
	view   routeView
	hosted map[NodeID]*snapHosted
	piggy  Piggyback // prebuilt immutable rider attached to every send

	stats *fastStats
	tel   *peerTelemetry
}

// fastSeq perturbs per-call RNG seeds so concurrent fast-path decisions with
// the same query ID still draw distinct streams.
var fastSeq atomic.Uint64

// PublishSnapshot freezes the peer's current routing-read state into a new
// RouteSnapshot. Loop context only (it reads and may tidy mutable state —
// digest rebuild, advert expiry). Peers with an OnForwardStep hook publish
// nil: the hook observes forwarding decisions and is not safe to call
// concurrently, so such peers stay loop-only.
func (p *Peer) PublishSnapshot() {
	if p.Hooks.OnForwardStep != nil {
		p.snap.Store(nil)
		return
	}
	// Scalars, tree, cold bitmap, oracle and owner hint carry over as they
	// are; every container the loop mutates is replaced by a frozen copy.
	s := &RouteSnapshot{view: p.routeView, stats: &p.fast, tel: p.tel}
	s.piggy = p.piggyback() // loop context; also rebuilds a dirty digest
	v := &s.view
	v.hostedList = append([]*hostedNode(nil), p.hostedList...)
	v.hostedIDs = append([]NodeID(nil), p.hostedIDs...)
	s.hosted = make(map[NodeID]*snapHosted, len(p.hostedList))
	for _, hn := range p.hostedList {
		s.hosted[hn.id] = &snapHosted{node: hn, meta: hn.meta.Clone(), outgoing: p.outgoingMap(hn.id)}
	}
	v.residentNode = func(node NodeID) *hostedNode {
		if sh := s.hosted[node]; sh != nil {
			return sh.node
		}
		return nil
	}
	v.neighborMaps = make(map[NodeID]*neighborMapEntry, len(p.neighborMaps))
	// One block, not one object per entry: neighbor maps outnumber hosted
	// nodes about three to one, and publication cost is mostly allocation.
	neighbors := make([]neighborMapEntry, 0, len(p.neighborMaps))
	for nd, e := range p.neighborMaps {
		neighbors = append(neighbors, neighborMapEntry{m: e.m.Clone()})
		v.neighborMaps[nd] = &neighbors[len(neighbors)-1]
	}
	v.cache = p.cache.frozen()
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
	p.snap.Store(s)
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
// hint, when non-empty, is an advisory host map for q.Dest from outside the
// snapshot (the overlay's result cache); a usable hint forwards directly to a
// host, bridging the gap until the loop absorbs the same result. An unusable
// hint is simply ignored. Passed by value to keep it off the heap.
func (s *RouteSnapshot) HandleQueryFast(q *QueryMsg, now float64, hint NodeMap, send func(ServerID, Message), absorb func(Piggyback, []PathEntry)) FastOutcome {
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
		d = v.route(q, d, &src, q.QueryID*7, hint, nil, 0)
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

func (s *RouteSnapshot) piggyback() Piggyback { return s.piggy }

func (s *RouteSnapshot) outgoingMap(node NodeID) NodeMap { return s.hosted[node].outgoing }

func (s *RouteSnapshot) answer(hn *hostedNode) (Meta, NodeMap) {
	sh := s.hosted[hn.id]
	return sh.meta.Clone(), sh.outgoing
}
