package core

import (
	"math"

	"terradir/internal/namespace"
	"terradir/internal/rng"
	"terradir/internal/telemetry"
)

// This file holds the one routing decision (§2.2, §2.4, §3.6.1): resolve
// locally if this server hosts the destination, otherwise forward to a host
// of the closest known node — neighbor context, cache, or digest shortcut —
// or fail. It is written once, over a read-only routeView, and run by two
// executors: Peer.HandleQuery on the event loop (below), which owns every
// mutation, and RouteSnapshot.HandleQueryFast off-loop on a frozen copy
// (snapshot.go). The decision mutates nothing; it returns a routeDecision
// naming the outcome and the effects it implies, and the executor applies
// them to its own state. Message construction (emit) is shared the same way.

// routeView is the routing-read state of one server: everything a routing
// decision reads. The live Peer embeds the mutable original; a RouteSnapshot
// holds a frozen one (see PublishSnapshot for how it is kept current).
type routeView struct {
	self ServerID
	cfg  Config
	tree *namespace.Tree

	// frozen marks a published view: its containers are private copies, but
	// their hostedNode and neighborMapEntry values are the live ones, of which
	// it may read only the immutable id, the atomic fastTouch and the frozen
	// copy behind the atomic pub pointer.
	frozen bool

	// hostedList is the resident hosted nodes in hosting order (deterministic
	// iteration, and the order ties between equally close hosted nodes resolve
	// in); index finds one of them by id (residentNode) and the closest of
	// them to a destination (hostedindex.go).
	hostedList []*hostedNode
	index      hostedIndex

	neighborMaps map[NodeID]*neighborMapEntry // read through neighborMap
	cache        *lruCache

	digests    map[ServerID]*digestEntry
	digestList []*digestEntry

	// cold, when non-nil, is the peer's cold-set bitmap (resident.go): nodes
	// hosted on disk only. Written by the loop, read atomically from anywhere;
	// it is the one structure a frozen view shares mutably.
	cold *coldSet

	// OracleHosts, when set together with cfg.DigestsEnabled, replaces Bloom
	// digest tests with perfect knowledge of which servers host a node
	// (§4.4's "optimal behavior, as if given by an oracle" yardstick).
	OracleHosts func(NodeID) []ServerID
}

// routeKind classifies a decision. The values mirror FastOutcome so the fast
// executor reports the kind as its outcome.
type routeKind uint8

const (
	// routeUnusable: the best candidate's map has no usable entry after
	// digest filtering. Only the loop can act on that (prune and retry).
	routeUnusable = routeKind(FastFallback)
	routeResolve  = routeKind(FastResolved)
	routeForward  = routeKind(FastForwarded)
	routeFail     = routeKind(FastFailed)
)

// maxRouteAttempts bounds the loop's prune-and-retry over unusable
// candidates; past it the decision stops considering candidates.
const maxRouteAttempts = 6

// routeDecision is the outcome of one decision plus the effects it implies.
type routeDecision struct {
	kind   routeKind
	reason telemetry.HopReason // forwarding mechanism or outcome, as traced
	fail   FailReason          // routeFail

	// node is the namespace node the hop acts for: the destination (resolve,
	// fail), the node whose map chose target (forward), or the unusable
	// candidate, whose map is candMap.
	node    NodeID
	target  ServerID // routeForward: next hop
	newDist int      // routeForward: namespace distance from node to dest
	candMap *NodeMap

	// viaCache: node was a cached candidate. On a forward the loop refreshes
	// its recency (§2.4: entries are touched when used in routing); the fast
	// path skips that — the order refreshes on the next loop-side use.
	viaCache bool
	// scanned: the digest-scan cursor was consumed.
	scanned bool

	// onBehalf is the sender's OnBehalf node when resident here; dest the
	// resolved destination; closest the hosted node nearest the destination,
	// which supplies a forward's path entry. See charged for weight accounting.
	onBehalf, dest, closest *hostedNode
}

// residentNode returns the resident hosted node for an id, or nil.
func (v *routeView) residentNode(id NodeID) *hostedNode {
	if pos := v.index.position(v.tree, id); pos >= 0 {
		return v.hostedList[pos]
	}
	return nil
}

// decide settles the outcomes that need no routing: resolve when the
// destination is resident, fail when the hop budget is spent. final reports
// whether d is complete; otherwise the executor continues with route.
func (v *routeView) decide(q *QueryMsg) (d routeDecision, final bool) {
	d.node, d.target = q.Dest, NoServer
	if q.OnBehalf != namespace.Invalid {
		d.onBehalf = v.residentNode(q.OnBehalf)
	}
	if hn := v.residentNode(q.Dest); hn != nil {
		d.kind, d.reason, d.dest = routeResolve, telemetry.HopResolve, hn
		return d, true
	}
	if q.Hops >= v.cfg.MaxHops {
		d.kind, d.reason, d.fail = routeFail, telemetry.HopFail, FailTTL
		return d, true
	}
	return d, false
}

// charged returns the hosted node this hop's work is charged to (§3.2): the
// node the sender selected this server on behalf of when it is resident here,
// else — the sender's OnBehalf was stale — on a forward the hosted node whose
// context represents the step. Nil when there is none.
func (d *routeDecision) charged() *hostedNode {
	if d.onBehalf == nil && d.kind == routeForward {
		return d.closest
	}
	return d.onBehalf
}

// route completes the non-final decision base with the forwarding decision.
// src supplies every random choice, in a fixed order: digest shortcut, then
// map pick. cursor positions the rotating digest-scan window (the loop's
// scanClock; the query ID off the loop, where a shared cursor would be a data
// race). skip excludes candidates already found unusable and attempt counts
// them: the shortcut search runs on the first attempt only, and from
// maxRouteAttempts on no candidate is considered.
func (v *routeView) route(q *QueryMsg, base routeDecision, src *rng.Source, cursor uint64, skip map[NodeID]bool, attempt int) routeDecision {
	d := base
	cand, candMap, candDist, viaCache, closest := v.bestCandidate(q.Dest, skip)
	if attempt >= maxRouteAttempts {
		candMap = nil
	}
	d.kind, d.closest = routeForward, closest
	// Digest shortcut discovery (§3.6.1): a hit on a node even closer to the
	// destination than the best candidate redirects the forward.
	if attempt == 0 && v.cfg.DigestsEnabled && (v.OracleHosts != nil || len(v.digestList) > 0) {
		d.scanned = true
		limit := candDist
		if candMap == nil {
			limit = math.MaxInt // no candidate: any hit helps
		}
		if s, node, dist := v.digestShortcut(q.Dest, limit, src, cursor); s != NoServer {
			d.target, d.node, d.newDist, d.reason = s, node, dist, telemetry.HopReplica
			return d
		}
	}
	if candMap == nil {
		d.kind, d.reason, d.fail = routeFail, telemetry.HopFail, FailNoRoute
		return d
	}
	d.node, d.newDist, d.viaCache = cand, candDist, viaCache
	if d.target = candMap.Pick(src, v.self, v.keepFor(cand)); d.target == NoServer {
		d.kind, d.candMap = routeUnusable, candMap
		return d
	}
	switch {
	case viaCache:
		d.reason = telemetry.HopCache
	case closest != nil && v.tree.Parent(closest.id) == cand:
		d.reason = telemetry.HopParent
	default:
		d.reason = telemetry.HopChild
	}
	return d
}

// bestCandidate returns the closest node to dest this server knows a map for
// (§2.2's minimizing procedure): the ideal next-hop neighbors of hosted
// nodes and all cached nodes, excluding any in skip. It also returns the
// hosted node closest to dest (the context representative for path
// propagation). A nil map means no usable candidate.
//
// Among hosted nodes the candidate is the next hop of the first in hosting
// order at the minimum distance whose next hop has a usable map. The index
// names the first at the minimum distance outright; when that node's next hop
// is usable — all but always — it is the answer, and otherwise scanHosted
// finds the runner-up.
func (v *routeView) bestCandidate(dest NodeID, skip map[NodeID]bool) (cand NodeID, m *NodeMap, dist int, viaCache bool, closest *hostedNode) {
	if pos, d := v.index.closest(v.tree, dest); pos >= 0 {
		closest = v.hostedList[pos]
		cand, dist = v.tree.NextHopToward(closest.id, dest), d-1
		m = v.usableMap(cand, skip)
	}
	if m == nil {
		cand, m, dist, closest = v.scanHosted(dest, skip)
	}
	// Cached nodes (§2.4): pointers without context; strictly-better only,
	// so context hops win ties (guaranteed progress beats a stale pointer).
	for s := v.cache.head; s != lruNil; s = v.cache.slots[s].next {
		e := &v.cache.slots[s]
		if e.m.Len() == 0 || skip[e.node] {
			continue
		}
		if d := v.tree.Distance(e.node, dest); d < dist {
			cand, m, dist, viaCache = e.node, &e.m, d, true
		}
	}
	return cand, m, dist, viaCache, closest
}

// scanHosted is bestCandidate's hosted half by exhaustion, one Distance per
// hosted node: the definition the index is tested against, and the exact
// continuation for the case the index cannot answer.
func (v *routeView) scanHosted(dest NodeID, skip map[NodeID]bool) (cand NodeID, m *NodeMap, dist int, closest *hostedNode) {
	cand = namespace.Invalid
	dist = math.MaxInt
	hostedDist := math.MaxInt
	for _, hn := range v.hostedList {
		d := v.tree.Distance(hn.id, dest)
		if d < hostedDist {
			hostedDist = d
			closest = hn
		}
		if d-1 >= dist {
			continue
		}
		nh := v.tree.NextHopToward(hn.id, dest)
		if nm := v.usableMap(nh, skip); nm != nil {
			cand, m, dist = nh, nm, d-1
		}
	}
	return cand, m, dist, closest
}

// usableMap returns the non-empty map this view holds for neighbor nd, or nil
// when there is none, nd is in skip, or nd is Invalid (no next hop: the
// hosted node is the destination).
func (v *routeView) usableMap(nd NodeID, skip map[NodeID]bool) *NodeMap {
	if nd == namespace.Invalid || skip[nd] {
		return nil
	}
	if nm := v.neighborMap(nd); nm != nil && nm.Len() > 0 {
		return nm
	}
	return nil
}

// neighborMap returns the map this view holds for neighbor nd, or nil: the
// loop's own on the live view, the last published copy on a frozen one.
func (v *routeView) neighborMap(nd NodeID) *NodeMap {
	e := v.neighborMaps[nd]
	if e == nil {
		return nil
	}
	if v.frozen {
		return e.pub.Load()
	}
	return &e.m
}

// digestShortcut scans the destination's ancestor chain (deepest first — the
// closest possible nodes to dest on its root path) against known digests and
// returns a server advertising a node strictly closer than limit, with that
// node and its distance. Nodes off the destination's root path are dominated
// by their LCA-depth ancestor on the path, so the path scan captures the
// profitable shortcuts (§3.6.1, Fig. 2) at O(depth × digests) cost.
func (v *routeView) digestShortcut(dest NodeID, limit int, src *rng.Source, cursor uint64) (ServerID, NodeID, int) {
	destDepth := v.tree.Depth(dest)
	minDepth := destDepth - limit + 1
	if lvl := v.cfg.DigestShortcutLevels; lvl > 0 && destDepth-lvl+1 > minDepth {
		minDepth = destDepth - lvl + 1 // cost cap, see Config.DigestShortcutLevels
	}
	if minDepth < 0 {
		minDepth = 0
	}
	// Scan a rotating window of the digest table (coverage spreads over
	// consecutive hops; see Config.DigestScanPerHop).
	total := len(v.digestList)
	scan, start := total, 0
	if v.cfg.DigestScanPerHop > 0 && v.cfg.DigestScanPerHop < total {
		scan, start = v.cfg.DigestScanPerHop, int(cursor%uint64(total))
	}
	node := dest
	for k := destDepth; k >= minDepth; k-- {
		if k < destDepth {
			node = v.tree.Parent(node)
		}
		n := 0
		var chosen ServerID = NoServer
		consider := func(s ServerID) {
			if s == v.self {
				return
			}
			n++
			if src.Intn(n) == 0 { // reservoir sample: uniform among the hits
				chosen = s
			}
		}
		if v.OracleHosts != nil {
			for _, s := range v.OracleHosts(node) {
				consider(s)
			}
		} else {
			key := NodeKey(node)
			for i := 0; i < scan; i++ {
				if e := v.digestList[(start+i)%total]; e.filter.Test(key) {
					consider(e.server)
				}
			}
		}
		if chosen != NoServer {
			return chosen, node, destDepth - k
		}
	}
	return NoServer, namespace.Invalid, 0
}

// hosts reports whether this server hosts node, resident or cold.
func (v *routeView) hosts(node NodeID) bool {
	return v.residentNode(node) != nil || v.cold.has(node)
}

// digestSays tests whether `server` plausibly hosts `node`: true when no
// information contradicts it (unknown digests are permissive — pruning is
// conservative, §3.6.2). With an oracle installed, the answer is exact.
func (v *routeView) digestSays(server ServerID, node NodeID) bool {
	if !v.cfg.DigestsEnabled {
		return true
	}
	if server == v.self {
		return v.hosts(node)
	}
	if v.OracleHosts != nil {
		for _, s := range v.OracleHosts(node) {
			if s == server {
				return true
			}
		}
		return false
	}
	e, ok := v.digests[server]
	if !ok {
		return true
	}
	return e.filter.Test(NodeKey(node))
}

// keepFor returns the digest-based map filtering predicate for node (§3.7
// map filtering), or nil when digests are disabled.
func (v *routeView) keepFor(node NodeID) func(ServerID) bool {
	if !v.cfg.DigestsEnabled {
		return nil
	}
	return func(s ServerID) bool { return v.digestSays(s, node) }
}

// routeCounter names a Stats counter a decision bumps. The loop keeps them in
// Peer.Stats; the fast path in an atomic mirror indexed by this type.
type routeCounter uint8

const (
	ctrProcessed routeCounter = iota
	ctrResolved
	ctrForwarded
	ctrFailedTTL
	ctrFailedNoRoute
	ctrDigestShortcuts
	ctrCacheHits
	ctrContextHops
	ctrResultsSent
	ctrControlSent
	numRouteCounters
)

// routeLedger is where an executor counts its decisions.
type routeLedger interface{ bump(routeCounter) }

func (s *Stats) bump(c routeCounter) { *s.routeCounter(c)++ }

func (s *Stats) routeCounter(c routeCounter) *int64 {
	return [numRouteCounters]*int64{
		ctrProcessed: &s.Processed, ctrResolved: &s.Resolved, ctrForwarded: &s.Forwarded,
		ctrFailedTTL: &s.FailedTTL, ctrFailedNoRoute: &s.FailedNoRoute,
		ctrDigestShortcuts: &s.DigestShortcuts, ctrCacheHits: &s.CacheHits, ctrContextHops: &s.ContextHops,
		ctrResultsSent: &s.ResultsSent, ctrControlSent: &s.ControlSent,
	}[c]
}

// tally counts a final decision: the Stats counters in the executor's ledger,
// the registry counters (shared atomics) directly.
func (d *routeDecision) tally(q *QueryMsg, led routeLedger, tel *peerTelemetry) {
	led.bump(ctrProcessed)
	if q.TraceID != 0 {
		led.bump(ctrControlSent) // the out-of-band span report
	}
	switch {
	case d.kind == routeResolve:
		led.bump(ctrResolved)
		led.bump(ctrResultsSent)
	case d.kind == routeFail && d.fail == FailTTL:
		led.bump(ctrFailedTTL)
		led.bump(ctrResultsSent)
	case d.kind == routeFail:
		led.bump(ctrFailedNoRoute)
		led.bump(ctrResultsSent)
	case d.reason == telemetry.HopCache:
		led.bump(ctrForwarded)
		led.bump(ctrCacheHits)
	case d.reason == telemetry.HopReplica:
		led.bump(ctrForwarded)
		led.bump(ctrDigestShortcuts)
	default: // neighbor context: HopChild, HopParent
		led.bump(ctrForwarded)
		led.bump(ctrContextHops)
	}
	if tel == nil {
		return
	}
	if q.TraceID != 0 {
		tel.spanReports.Inc()
	}
	switch d.kind {
	case routeResolve:
		tel.resolved.Inc()
	case routeFail:
		tel.failed.Inc()
	case routeForward:
		tel.forwarded.Inc()
		switch d.reason {
		case telemetry.HopCache:
			tel.cacheHits.Inc()
		case telemetry.HopReplica:
			tel.digestShortcuts.Inc()
			tel.cacheMisses.Inc()
		case telemetry.HopChild, telemetry.HopParent:
			tel.cacheMisses.Inc()
		}
		if q.Hops > 0 {
			if d.newDist < int(q.PrevDist) {
				tel.progress.Inc()
			} else {
				tel.detours.Inc()
			}
		}
	}
}

// messageSource supplies what message construction cannot read off a view:
// the rider, with or without digests, and the metadata and bounded host map a
// hosted node is answered and path-recorded with. The live peer computes them
// (a fresh rider, drawn from its RNG stream); a snapshot returns the copies
// frozen at publication.
type messageSource interface {
	rider(digests bool) Piggyback
	outgoingMap(NodeID) NodeMap
	answer(*hostedNode) (Meta, NodeMap)
}

// emit builds and sends the messages a final decision implies: for a traced
// query this hop's span — appended to the in-band chain while under budget,
// and always reported out-of-band to the initiating server, which is what
// survives a query lost mid-route — then the forwarded query, the result, or
// the failure. now closes the span's service time. Riders are drawn span
// first, message second. A rider addressed to an edge client (IsClient)
// carries no digests: §3.6's digests serve routing and map pruning, and a
// client does neither.
//
// Ownership transfer: a received message's path belongs to its handler (the
// sender built a fresh slice and never retains it; absorbPath only copies
// values out), so the path is extended in place rather than deep-cloned.
func (v *routeView) emit(q *QueryMsg, d *routeDecision, now float64, from messageSource, send func(ServerID, Message)) {
	digests := !IsClient(q.Source)
	spans := q.Spans
	if q.TraceID != 0 {
		sp := telemetry.Span{Seq: int32(q.Hops), Server: int32(v.self), Node: int32(d.node), Reason: d.reason}
		if q.ServedAt > 0 {
			if q.Enqueued > 0 && q.ServedAt >= q.Enqueued {
				sp.QueueWaitMicros = int64((q.ServedAt - q.Enqueued) * 1e6)
			}
			if now > q.ServedAt {
				sp.ServiceMicros = int64((now - q.ServedAt) * 1e6)
			}
		}
		if q.SpanBudget <= 0 || int32(len(spans)) < q.SpanBudget {
			spans = append(spans, sp)
		}
		send(q.Source, &TraceSpanMsg{TraceID: q.TraceID, Span: sp, Piggy: from.rider(digests)})
	}
	if d.kind == routeForward {
		path := q.Path
		if v.pathRoom(&path, d.closest) {
			path = append(path, PathEntry{Node: d.closest.id, Map: from.outgoingMap(d.closest.id)})
		}
		send(d.target, &QueryMsg{
			QueryID:    q.QueryID,
			Dest:       q.Dest,
			Source:     q.Source,
			OnBehalf:   d.node,
			Hops:       q.Hops + 1,
			Started:    q.Started,
			PrevDist:   int32(d.newDist),
			Path:       path,
			TraceID:    q.TraceID,
			SpanBudget: q.SpanBudget,
			Spans:      spans,
			Piggy:      from.rider(true),
		})
		return
	}
	// A result answers the lookup with name, metadata and a mapping for the
	// node (§2.1 lookup semantics), plus the completed path so the source
	// caches it; a failure returns the path as it arrived.
	res := &ResultMsg{
		QueryID: q.QueryID,
		Dest:    q.Dest,
		OK:      d.kind == routeResolve,
		Reason:  d.fail,
		Hops:    q.Hops,
		Started: q.Started,
		Path:    q.Path,
		TraceID: q.TraceID,
		Spans:   spans,
	}
	if res.OK {
		res.Meta, res.Map = from.answer(d.dest)
		if v.pathRoom(&res.Path, d.dest) {
			res.Path = append(res.Path, PathEntry{Node: q.Dest, Map: res.Map})
		}
	}
	res.Piggy = from.rider(digests)
	send(q.Source, res)
}

// pathRoom prepares *path for this server's entry — its hosted node rep and
// that node's map — implementing path propagation (§2.4), and reports whether
// the entry is to be appended. With path propagation disabled only the first
// entry (the source's) is recorded, so endpoint caching still works. The path
// is bounded by MaxPathEntries (oldest entries beyond the source are dropped
// first).
func (v *routeView) pathRoom(path *[]PathEntry, rep *hostedNode) bool {
	out := *path
	if rep == nil || (!v.cfg.PathPropagation && len(out) > 0) {
		return false
	}
	if len(out) >= v.cfg.MaxPathEntries && len(out) > 1 {
		copy(out[1:], out[2:]) // keep the source entry, drop the oldest middle
		out = out[:len(out)-1]
		*path = out
	}
	return len(out) < v.cfg.MaxPathEntries || v.cfg.MaxPathEntries == 0
}

// HandleQuery processes one lookup at service completion. It is invoked by
// the driver when the query leaves the server's request queue, and is the
// loop-side executor of the routing decision: it absorbs what the query
// carried, decides, applies the decision's effects to the live state, and
// sends with a fresh rider.
func (p *Peer) HandleQuery(q *QueryMsg) {
	p.absorbPiggy(&q.Piggy)
	p.absorbPath(q.Path)

	d, final := p.decide(q)
	if !final {
		base := d
		var skip map[NodeID]bool
		for attempt := 0; ; attempt++ {
			d = p.route(q, base, p.src, uint64(p.scanClock+7), skip, attempt)
			if d.scanned {
				p.scanClock += 7 // advance the rotating window each hop (odd stride)
			}
			if d.kind != routeUnusable {
				break
			}
			// Unusable candidate (§3.7 map filtering is strict — stale entries
			// are pruned, never re-selected): prune digest-refuted entries
			// permanently and skip it for the remainder of this decision.
			// Bounded: route gives up on candidates at maxRouteAttempts.
			if keep := p.keepFor(d.node); keep != nil {
				p.editCandidate(&d).Prune(keep)
			}
			if d.viaCache && d.candMap.Len() == 0 {
				p.cache.Delete(d.node)
			}
			if skip == nil {
				skip = make(map[NodeID]bool, 4)
			}
			skip[d.node] = true
		}
	}

	if hn := d.charged(); hn != nil {
		p.touchNode(hn)
	}
	if d.dest != nil {
		p.touchNode(d.dest)
	}
	if d.kind == routeForward {
		if d.viaCache {
			p.cache.Touch(d.node)
		}
		if q.Hops > 0 && p.Hooks.OnForwardStep != nil {
			p.Hooks.OnForwardStep(int(q.PrevDist), d.newDist)
		}
	}
	d.tally(q, &p.Stats, p.tel)
	p.emit(q, &d, p.env.Now(), p, p.env.Send)
	p.afterQuery()
}

// editCandidate returns an unusable decision's candidate map — d.candMap —
// for pruning in place.
func (p *Peer) editCandidate(d *routeDecision) *NodeMap {
	if d.viaCache {
		return p.cache.Edit(d.node)
	}
	return p.editNeighborMap(p.neighborMaps[d.node])
}

func (p *Peer) answer(hn *hostedNode) (Meta, NodeMap) {
	return hn.meta.Clone(), p.outgoingMap(hn.id)
}

// absorbPath caches every entry of the propagated path (§2.4: "the path so
// far is cached at every step along the query path").
func (p *Peer) absorbPath(path []PathEntry) {
	for i := range path {
		p.learnMap(path[i].Node, &path[i].Map)
	}
}

// HandleResult ingests a lookup answer arriving back at the initiating
// server: the full path (including the destination) is cached at the source,
// completing path propagation.
func (p *Peer) HandleResult(r *ResultMsg) {
	p.absorbPiggy(&r.Piggy)
	p.absorbPath(r.Path)
	if r.OK && r.Map.Len() > 0 {
		p.learnMap(r.Dest, &r.Map)
	}
}
