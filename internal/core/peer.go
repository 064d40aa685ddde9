package core

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"terradir/internal/bloom"
	"terradir/internal/namespace"
	"terradir/internal/rng"
)

// Env is the peer's window to the outside world. The simulator and the live
// overlay provide implementations. All Env methods are invoked from the
// peer's own execution context (the simulator event loop or the peer
// goroutine); implementations must dispatch After callbacks back into that
// same context.
type Env interface {
	// Now returns the current time in seconds.
	Now() float64
	// Load returns this server's measured busy-fraction load in [0,1]
	// (paper §3.1: locally defined, linearly comparable).
	Load() float64
	// Send transmits a message to another server (or to self, which
	// implementations deliver without network delay).
	Send(to ServerID, m Message)
	// After schedules fn to run on this peer after d seconds.
	After(d float64, fn func())
}

// Hooks are optional instrumentation callbacks used by experiments.
type Hooks struct {
	// OnReplicaInstalled fires when this peer installs a replica of node
	// created by server from.
	OnReplicaInstalled func(node NodeID, from ServerID)
	// OnReplicaEvicted fires when this peer evicts a replica.
	OnReplicaEvicted func(node NodeID)
	// OnForwardStep fires at each forwarding decision with the sender's
	// candidate distance and this peer's (routing accuracy accounting; a
	// step makes incremental progress when newDist < prevDist).
	OnForwardStep func(prevDist, newDist int)
}

// Stats are per-peer monotonic counters, as StatsView reads them off the
// peer's ledger.
type Stats struct {
	Processed        int64 // queries serviced: ResultsSent + Forwarded
	Resolved         int64 // lookups answered by this peer
	Forwarded        int64 // CacheHits + DigestShortcuts + ContextHops
	FailedTTL        int64
	FailedNoRoute    int64
	DigestShortcuts  int64 // forwards taken via a digest hit
	CacheHits        int64 // forwards via a cached candidate
	ContextHops      int64 // forwards via neighbor context
	ReplicaInstalls  int64
	ReplicaEvictions int64
	SessionsStarted  int64
	SessionsAborted  int64
	SessionsOK       int64
	ControlSent      int64 // control (non-query, non-result) messages sent, SpanReports included
	ResultsSent      int64 // Resolved + FailedTTL + FailedNoRoute
	SpanReports      int64 // trace span reports sent
	StaleSelfPurged  int64 // self-entries removed from maps for non-hosted nodes

	ServerPurges      int64 // PurgeServer invocations (one per detected death)
	PurgedEntries     int64 // soft-state references removed by PurgeServer
	OwnershipAdopts   int64 // nodes provisionally adopted from dead owners
	OwnershipReleases int64 // adopted nodes handed back to returned owners
	LookupReattempts  int64 // unanswered lookups initiated here, sent again
}

type hostedNode struct {
	id      NodeID
	owned   bool
	adopted bool // provisional ownership taken over from a dead server
	hasData bool // owners keep node data (Table 1); replicas do not
	// Snapshot publication (snapshot.go): stale says the published copy is out
	// of date and the node is linked into the peer's republish list.
	stale bool
	// Residency bookkeeping (resident.go): CLOCK reference bit.
	ref         bool
	data        []byte // application data (owner only)
	meta        Meta
	selfMap     NodeMap
	neighborIDs []NodeID
	weight      float64 // load-based ranking counter (§3.2), decayed lazily
	weightT     float64 // time of last decay
	lastUsed    float64
	// fastTouch accumulates query charges from the lock-free snapshot fast
	// path; the loop folds it into weight/lastUsed (foldFastTouches).
	fastTouch atomic.Int64

	// pub is the frozen copy of meta and the outgoing map that off-loop
	// readers see; nextStale links the republish list (see stale).
	pub       atomic.Pointer[frozenHosted]
	nextStale *hostedNode

	// dirtyGen is the dirty epoch stamp (0 = clean: durable state is in the
	// current index generation).
	dirtyGen uint64
}

// neighborMapEntry is the map kept for one neighbor of a hosted node. m is the
// loop's live copy, to be written only through editNeighborMap; pub is the
// frozen copy off-loop readers see, and stale/nextStale are its republish
// bookkeeping, as for hostedNode.
type neighborMapEntry struct {
	m    NodeMap
	refs int

	pub       atomic.Pointer[NodeMap]
	stale     bool
	nextStale *neighborMapEntry
}

type digestEntry struct {
	server ServerID
	filter *bloom.Filter
}

type advertRecord struct {
	node    NodeID
	servers []ServerID
	created float64
}

// Peer is one TerraDir server: a transport-agnostic protocol state machine.
// It is not safe for concurrent use; drive it from a single goroutine or the
// simulator loop.
type Peer struct {
	ID  ServerID
	env Env
	src *rng.Source

	// routeView is the state routing decisions read (routing.go): config,
	// tree, hostedList, neighbor maps, cache, foreign digests, cold set,
	// OracleHosts. PublishSnapshot freezes a copy of it.
	routeView
	hosted     map[NodeID]*hostedNode // resident hosted nodes by id, for the loop; hostedList orders them
	ownedCount int

	digest      *bloom.Filter // own inverse-mapping digest
	digestDirty bool
	digestClock int // round-robin eviction cursor
	scanClock   int // rotating shortcut-scan window cursor

	knownLoads    map[ServerID]float64
	knownLoadKeys []ServerID // parallel key list for O(1) random eviction
	loadBias      float64
	sysLoadEst    float64 // mean of gossiped loads, refreshed each Maintain

	recentAdverts []advertRecord
	advertSweptAt float64 // last advert-expiry sweep (BatchTick amortization)

	sess           replSession
	nextSession    uint64
	lastSessionEnd float64

	Hooks Hooks

	// journal, when set, receives every durable hosted-state mutation (see
	// journal.go). Fired from the peer's execution context.
	journal func(mu *HostedMutation)

	tel *peerTelemetry // nil until AttachTelemetry

	// resident is the bounded hot-cache bookkeeping (resident.go); residency
	// is off (everything stays in memory) until SetResidency.
	resident residencyState

	// led counts every event either executor sees (telemetry.go).
	led ledger

	// snap is the published routing snapshot (see snapshot.go), pub the
	// loop's record of what changed since it was published. riderLoad holds
	// the float64 bits of effLoad as of the last PublishSnapshot call: the
	// published rider reads its load here, so a load change republishes nothing.
	snap      atomic.Pointer[RouteSnapshot]
	pub       pubState
	riderLoad atomic.Uint64

	scratchMap NodeMap // mergeMap's result buffer
}

// advertTTL is how long (seconds) a newly created replica is piggybacked as
// a fresh advertisement on outgoing messages.
const advertTTL = 2.0

// advertSweepSlack is how long a completed advert-expiry sweep stays fresh:
// piggyback skips the in-place compaction within this window, so a
// batch-drain loop calling BatchTick once pays one compaction per batch
// instead of one per outgoing message. Emission is TTL-filtered on every
// message regardless, so sweep timing never shows on the wire — the slack
// only bounds how long an expired record occupies its slice slot.
const advertSweepSlack = 0.05

// NewPeer constructs a peer. cfg must validate. Ownership is declared with
// AddOwned and finalized with FinishSetup before any message handling.
func NewPeer(id ServerID, tree *namespace.Tree, cfg Config, env Env, src *rng.Source) (*Peer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tree == nil || env == nil || src == nil {
		return nil, fmt.Errorf("core: NewPeer requires tree, env and src")
	}
	cacheCap := cfg.CacheSlots
	if !cfg.CachingEnabled {
		cacheCap = 0
	}
	p := &Peer{
		ID:  id,
		env: env,
		src: src,
		routeView: routeView{
			self:         id,
			cfg:          cfg,
			tree:         tree,
			neighborMaps: make(map[NodeID]*neighborMapEntry),
			cache:        newLRUCache(cacheCap),
			digests:      make(map[ServerID]*digestEntry),
		},
		hosted:         make(map[NodeID]*hostedNode),
		knownLoads:     make(map[ServerID]float64),
		lastSessionEnd: math.Inf(-1),
		resident:       residencyState{mutGen: 1},
	}
	return p, nil
}

// Config returns the peer's configuration.
func (p *Peer) Config() Config { return p.cfg }

// HostedIDs returns a fresh slice of all hosted node ids (owned and
// replicated, resident and cold), resident entries first in hosting order.
func (p *Peer) HostedIDs() []NodeID {
	ids := make([]NodeID, len(p.hostedList), len(p.hostedList)+p.ColdCount())
	for i, hn := range p.hostedList {
		ids[i] = hn.id
	}
	return append(ids, p.ColdIDs()...)
}

// AddOwned declares this peer the owner of node. Call before FinishSetup.
func (p *Peer) AddOwned(node NodeID, meta Meta) {
	if _, ok := p.hosted[node]; ok {
		return
	}
	hn := &hostedNode{
		id:      node,
		owned:   true,
		hasData: true,
		meta:    meta,
		selfMap: SingleServerMap(p.ID),
		ref:     true,
	}
	p.addHosted(hn)
	p.ownedCount++
	p.markDirty(hn)
}

// addHosted makes hn resident: indexed by id and appended to the hosting
// order.
func (p *Peer) addHosted(hn *hostedNode) {
	p.hosted[hn.id] = hn
	p.hostedList = append(p.hostedList, hn)
	p.index.add(p.tree, hn.id, len(p.hostedList)-1)
	p.pub.members = true
	p.staleHosted(hn)
}

// dropHosted removes hn from the resident set, preserving the hosting order
// of the rest.
func (p *Peer) dropHosted(hn *hostedNode) {
	delete(p.hosted, hn.id)
	p.pub.members = true
	for i, h := range p.hostedList {
		if h == hn {
			p.hostedList = append(p.hostedList[:i], p.hostedList[i+1:]...)
			p.index.remove(p.tree, hn.id, i, namespace.Invalid)
			return
		}
	}
}

// FinishSetup wires the routing context for every owned node: neighbor maps
// initialized to the namespace owners (ownerOf), and the peer's own digest.
func (p *Peer) FinishSetup(ownerOf func(NodeID) ServerID) {
	for _, hn := range p.hostedList {
		p.initNeighbors(hn, ownerOf)
	}
	p.rebuildDigest()
}

func (p *Peer) initNeighbors(hn *hostedNode, ownerOf func(NodeID) ServerID) {
	var ids []NodeID
	if parent := p.tree.Parent(hn.id); parent != namespace.Invalid {
		ids = append(ids, parent)
	}
	ids = append(ids, p.tree.Children(hn.id)...)
	hn.neighborIDs = ids
	for _, nb := range ids {
		if e, ok := p.neighborMaps[nb]; ok {
			e.refs++
			continue
		}
		p.addNeighbor(nb, SingleServerMap(ownerOf(nb)))
	}
}

// addNeighbor starts the neighbor map for nb, referenced once.
func (p *Peer) addNeighbor(nb NodeID, m NodeMap) {
	e := &neighborMapEntry{m: m, refs: 1}
	p.neighborMaps[nb] = e
	p.pub.members = true
	p.staleNeighbor(e)
}

// releaseNeighbors drops hn's references to its neighbor maps, deleting those
// no other hosted node shares.
func (p *Peer) releaseNeighbors(hn *hostedNode) {
	for _, nb := range hn.neighborIDs {
		if e, ok := p.neighborMaps[nb]; ok {
			e.refs--
			if e.refs <= 0 {
				delete(p.neighborMaps, nb)
				p.pub.members = true
			}
		}
	}
}

// OwnedCount returns the number of nodes this peer owns (resident and cold).
func (p *Peer) OwnedCount() int {
	if p.cold != nil {
		return p.ownedCount + p.cold.ownedCount
	}
	return p.ownedCount
}

// ReplicaCount returns the number of replicas currently hosted (resident and
// cold).
func (p *Peer) ReplicaCount() int {
	n := len(p.hostedList) - p.ownedCount
	if p.cold != nil {
		n += p.cold.count - p.cold.ownedCount
	}
	return n
}

// CacheLen returns the number of cached entries.
func (p *Peer) CacheLen() int { return p.cache.Len() }

// Hosts reports whether the peer currently hosts (owns or replicates) node,
// resident or cold.
func (p *Peer) Hosts(node NodeID) bool { return p.hosts(node) }

// HostsReplica reports whether the peer holds a replica (not ownership) of
// node.
func (p *Peer) HostsReplica(node NodeID) bool {
	hn, ok := p.hosted[node]
	return ok && !hn.owned
}

// maxReplicas returns the Frepl-derived hosting bound (§3.4). Cold owned
// nodes count: the bound scales with the hosted partition, not with RAM.
func (p *Peer) maxReplicas() int {
	return int(p.cfg.ReplFactor * float64(p.OwnedCount()))
}

// effLoad is the load value protocol decisions use: the measured load plus
// the post-replication hysteresis bias (§3.3 step 4), clamped to [0,1].
func (p *Peer) effLoad() float64 {
	l := p.env.Load() + p.loadBias
	if l < 0 {
		return 0
	}
	if l > 1 {
		return 1
	}
	return l
}

// touchNode charges one query's worth of weight to hn (§3.2) and refreshes
// its recency.
func (p *Peer) touchNode(hn *hostedNode) {
	now := p.env.Now()
	if hn.weightT > 0 && now > hn.weightT {
		hn.weight *= math.Exp2(-(now - hn.weightT) / p.cfg.WeightHalfLife)
	}
	hn.weight++
	hn.weightT = now
	hn.lastUsed = now
	hn.ref = true
}

// decayedWeight returns hn's weight decayed to the present without charging.
func (p *Peer) decayedWeight(hn *hostedNode) float64 {
	now := p.env.Now()
	if hn.weightT <= 0 || now <= hn.weightT {
		return hn.weight
	}
	return hn.weight * math.Exp2(-(now-hn.weightT)/p.cfg.WeightHalfLife)
}

// rebuildDigest regenerates the peer's own Bloom digest from the hosted set
// and bumps its version. A published digest is immutable: rebuilds always
// allocate a fresh filter, so snapshots can be shared by pointer with every
// outgoing message instead of cloned per message.
func (p *Peer) rebuildDigest() {
	n := len(p.hostedList) + p.ColdCount()
	if n < 1 {
		n = 1
	}
	bits := uint64(p.cfg.DigestBitsPerNode * n)
	nf := bloom.New(bits, uint32(p.cfg.DigestHashes))
	if p.digest != nil {
		nf.SetVersion(p.digest.Version())
	}
	for _, hn := range p.hostedList {
		nf.Add(NodeKey(hn.id))
	}
	// Cold entries are hosted state too: remote digest tests must keep
	// routing queries here, where the loader materializes them on demand.
	for _, id := range p.ColdIDs() {
		nf.Add(NodeKey(id))
	}
	nf.BumpVersion()
	p.digest = nf
	p.digestDirty = false
	p.pub.stale = true // the rider advertises the new filter
}

// Digest returns the peer's current inverse-mapping digest (not a copy).
func (p *Peer) Digest() *bloom.Filter { return p.digest }

// storeDigest retains a foreign digest if it is new or newer than what we
// hold, evicting the stalest entry when over capacity.
func (p *Peer) storeDigest(server ServerID, f *bloom.Filter) {
	if !p.cfg.DigestsEnabled || f == nil || server == p.ID || p.cfg.MaxDigests == 0 {
		return
	}
	if e, ok := p.digests[server]; ok {
		if f.Version() > e.filter.Version() {
			e.filter = f
			p.pub.digests = true
		}
		return
	}
	p.pub.digests = true
	if len(p.digestList) >= p.cfg.MaxDigests {
		// O(1) round-robin eviction: replace the slot under the clock hand.
		// (Exact LRU would scan; digests refresh constantly via piggyback,
		// so approximate recycling is sufficient and cheap.)
		slot := p.digestClock % len(p.digestList)
		p.digestClock++
		victim := p.digestList[slot]
		delete(p.digests, victim.server)
		e := &digestEntry{server: server, filter: f}
		p.digestList[slot] = e
		p.digests[server] = e
		return
	}
	e := &digestEntry{server: server, filter: f}
	p.digests[server] = e
	p.digestList = append(p.digestList, e)
}

// recordLoad notes a gossiped load observation. When the bounded table is
// full a uniformly random resident entry is displaced — O(1), and since
// loads refresh on every message the table self-repairs quickly.
func (p *Peer) recordLoad(server ServerID, load float64) {
	if server == p.ID || server == NoServer {
		return
	}
	if _, ok := p.knownLoads[server]; ok {
		p.knownLoads[server] = load
		return
	}
	if len(p.knownLoadKeys) >= p.cfg.MaxKnownLoads {
		slot := p.src.Intn(len(p.knownLoadKeys))
		delete(p.knownLoads, p.knownLoadKeys[slot])
		p.knownLoadKeys[slot] = server
	} else {
		p.knownLoadKeys = append(p.knownLoadKeys, server)
	}
	p.knownLoads[server] = load
}

// KnownLoadCount returns the size of the gossiped-load table.
func (p *Peer) KnownLoadCount() int { return len(p.knownLoads) }

// piggyback builds the rider attached to an outgoing message: own identity
// and load, fresh replica adverts, own digest plus a bounded sample of
// foreign digests (transitive dissemination, §6).
func (p *Peer) piggyback() Piggyback { return p.rider(true) }

// rider is piggyback with the digests optional: without them it neither
// rebuilds the own digest nor draws the foreign sample from p.src.
func (p *Peer) rider(digests bool) Piggyback {
	pb := Piggyback{From: p.ID, Load: p.effLoad()}
	now := p.env.Now()
	// Compact stale adverts in place, unless BatchTick already swept within
	// the slack window — batch-drain loops amortize the compaction across the
	// whole batch. Emission still filters by TTL on every message, so the
	// rider's contents are independent of sweep timing.
	if now-p.advertSweptAt > advertSweepSlack {
		p.sweepAdverts(now)
	}
	for _, a := range p.recentAdverts {
		if now-a.created > advertTTL {
			continue
		}
		pb.Adverts = append(pb.Adverts, Advert{Node: a.node, Servers: append([]ServerID(nil), a.servers...)})
	}
	if digests && p.cfg.DigestsEnabled && p.cfg.DigestsPerMessage > 0 {
		if p.digestDirty {
			p.rebuildDigest()
		}
		// Digests are immutable snapshots (see rebuildDigest), shared by
		// pointer — no per-message copies.
		pb.Digests = append(pb.Digests, DigestUpdate{Server: p.ID, Digest: p.digest})
		for i := 1; i < p.cfg.DigestsPerMessage && len(p.digestList) > 0; i++ {
			e := p.digestList[p.src.Intn(len(p.digestList))]
			pb.Digests = append(pb.Digests, DigestUpdate{Server: e.server, Digest: e.filter})
		}
	}
	return pb
}

// sweepAdverts expires stale adverts in place and stamps the sweep time.
func (p *Peer) sweepAdverts(now float64) {
	kept := p.recentAdverts[:0]
	for _, a := range p.recentAdverts {
		if now-a.created <= advertTTL {
			kept = append(kept, a)
		}
	}
	p.recentAdverts = kept
	p.advertSweptAt = now
}

// BatchTick runs the per-batch amortized bookkeeping for a batch-drain event
// loop: one advert-expiry sweep (piggyback then skips its per-message sweep
// for advertSweepSlack) and one digest rebuild if the hosted set changed,
// instead of paying both on every outgoing message of the batch. Call it once
// per drained inbox batch, before handling the batch's messages.
func (p *Peer) BatchTick() {
	p.sweepAdverts(p.env.Now())
	if p.digestDirty {
		p.rebuildDigest()
	}
}

// absorbPiggy ingests a received rider: load gossip, adverts, digests.
func (p *Peer) absorbPiggy(pb *Piggyback) {
	if pb.From != NoServer && pb.From != p.ID {
		p.recordLoad(pb.From, pb.Load)
	}
	for i := range pb.Digests {
		p.storeDigest(pb.Digests[i].Server, pb.Digests[i].Digest)
	}
	for i := range pb.Adverts {
		p.absorbAdvert(&pb.Adverts[i])
	}
}

// absorbAdvert folds a new-replica advertisement into whatever map this peer
// keeps for the node (hosted/neighbor/cached); if none and caching is on, a
// new cache entry is created.
func (p *Peer) absorbAdvert(a *Advert) {
	if len(a.Servers) == 0 {
		return
	}
	target := p.editMapFor(a.Node)
	if target == nil {
		if p.cfg.CachingEnabled {
			m := NodeMap{}
			for _, s := range a.Servers {
				if s != p.ID {
					m.AddAdvertised(s, p.cfg.MapSize)
				}
			}
			if m.Len() > 0 {
				p.cache.Put(a.Node, m)
			}
		}
		return
	}
	for i := len(a.Servers) - 1; i >= 0; i-- { // oldest first so newest ends in front
		target.AddAdvertised(a.Servers[i], p.cfg.MapSize)
	}
	// Advert pinning can displace entries from a full map; a hosted node's
	// self entry must survive.
	if p.Hosts(a.Node) {
		p.ensureSelf(target)
	}
}

// mapFor returns the authoritative map this peer keeps for node: hosted
// self-map, neighbor map, or cached map — nil if none. The map is for reading
// only; editMapFor returns it for writing.
func (p *Peer) mapFor(node NodeID) *NodeMap {
	if hn, ok := p.hosted[node]; ok {
		return &hn.selfMap
	}
	if e, ok := p.neighborMaps[node]; ok {
		return &e.m
	}
	return p.cache.Peek(node)
}

// editMapFor is mapFor for mutation in place: the map is marked for
// republication.
func (p *Peer) editMapFor(node NodeID) *NodeMap {
	if hn, ok := p.hosted[node]; ok {
		return p.editSelfMap(hn)
	}
	if e, ok := p.neighborMaps[node]; ok {
		return p.editNeighborMap(e)
	}
	return p.cache.Edit(node)
}

// learnMap merges an incoming map for node into the peer's state (§3.7 map
// merging), applying digest filtering and stale-self purging.
func (p *Peer) learnMap(node NodeID, incoming *NodeMap) {
	hosted := p.Hosts(node)
	if !hosted && incoming.Contains(p.ID) {
		// We appear in a map for a node we do not host: purge the stale
		// entry before storing (§3.5 "removing stale entries from maps when
		// they are routed through servers").
		inc := incoming.Clone()
		inc.Remove(p.ID)
		incoming = &inc
		p.led.inc(ctrStaleSelfPurged)
	}
	if incoming.Len() == 0 {
		return
	}
	keep := p.keepFor(node)
	if hn, ok := p.hosted[node]; ok {
		if m := p.mergeMap(&hn.selfMap, incoming, keep, true); m != nil {
			p.editSelfMap(hn).set(m)
		}
		return
	}
	if e, ok := p.neighborMaps[node]; ok {
		if m := p.mergeMap(&e.m, incoming, keep, false); m != nil {
			p.editNeighborMap(e).set(m)
		}
		return
	}
	if !p.cfg.CachingEnabled {
		return
	}
	if cur := p.cache.Peek(node); cur != nil {
		p.cache.Touch(node) // recency refreshes on every learn (§2.4)
		if m := p.mergeMap(cur, incoming, keep, false); m != nil {
			p.cache.Edit(node).set(m)
		}
		return
	}
	if m := p.cache.Put(node, *incoming); m != nil {
		m.Truncate(p.cfg.MapSize)
	}
}

// mergeMap merges incoming into a scratch copy of cur (§3.7), with the peer
// kept in it when self is set, and returns the result, or nil when it equals
// cur. The caller copies a result in through cur's edit accessor, so a merge
// that changes nothing marks nothing for republication.
func (p *Peer) mergeMap(cur, incoming *NodeMap, keep func(ServerID) bool, self bool) *NodeMap {
	m := &p.scratchMap
	m.set(cur)
	if changed := m.Merge(incoming, p.cfg.MapSize, p.src, keep); self && p.ensureSelf(m) || changed {
		return m
	}
	return nil
}

// ensureSelf guarantees the peer appears in a map of a node it hosts,
// reporting whether it had to add it.
func (p *Peer) ensureSelf(m *NodeMap) bool {
	if m.Contains(p.ID) {
		return false
	}
	if m.Len() >= p.cfg.MapSize && m.Len() > 0 {
		m.Servers[m.Len()-1] = p.ID // displace the last regular entry
	} else {
		m.Servers = append(m.Servers, p.ID)
	}
	return true
}

// outgoingMap builds the bounded map to propagate for node: the stored map,
// cloned, with self guaranteed when hosting (§3.7 map size constraint applies
// to propagated maps too).
func (p *Peer) outgoingMap(node NodeID) NodeMap {
	src := p.mapFor(node)
	if src == nil {
		if p.Hosts(node) {
			return SingleServerMap(p.ID)
		}
		return NodeMap{}
	}
	m := src.Clone()
	if p.Hosts(node) {
		p.ensureSelf(&m)
	}
	m.Truncate(p.cfg.MapSize)
	return m
}

// Maintain runs the periodic housekeeping tick: digest rebuild when dirty,
// hysteresis bias decay, advert expiry, and age-based replica eviction
// (§3.5). The driver (cluster or overlay) calls it every
// cfg.MaintainInterval seconds.
func (p *Peer) Maintain() {
	p.foldFastTouches()
	now := p.env.Now()
	if p.cfg.AdaptiveThigh && len(p.knownLoadKeys) > 0 {
		// Summed in key-list order: map order is random, and float addition
		// is not associative.
		sum := 0.0
		for _, s := range p.knownLoadKeys {
			sum += p.knownLoads[s]
		}
		p.sysLoadEst = sum / float64(len(p.knownLoadKeys))
	}
	p.loadBias *= 0.5
	if math.Abs(p.loadBias) < 1e-4 {
		p.loadBias = 0
	}
	if p.digestDirty {
		p.rebuildDigest()
	}
	if p.cfg.ReplicaEvictAge > 0 {
		var victims []NodeID
		for _, hn := range p.hostedList {
			if !hn.owned && now-hn.lastUsed > p.cfg.ReplicaEvictAge {
				victims = append(victims, hn.id)
			}
		}
		for _, v := range victims {
			p.evictReplica(v)
		}
	}
}

// evictReplica removes a hosted replica and its context (owned nodes are
// never evicted). It reports whether an eviction happened.
func (p *Peer) evictReplica(node NodeID) bool {
	hn, ok := p.hosted[node]
	if !ok || hn.owned {
		return false
	}
	p.dropHosted(hn)
	p.releaseNeighbors(hn)
	p.digestDirty = true
	p.journalKind(MutDelete, node)
	p.led.inc(ctrReplicaEvictions)
	if p.Hooks.OnReplicaEvicted != nil {
		p.Hooks.OnReplicaEvicted(node)
	}
	return true
}

// rankHosted returns hosted nodes ordered by decayed weight, heaviest first
// (ties by node id for determinism).
func (p *Peer) rankHosted() []*hostedNode {
	p.foldFastTouches()
	ranked := append([]*hostedNode(nil), p.hostedList...)
	sort.SliceStable(ranked, func(i, j int) bool {
		wi, wj := p.decayedWeight(ranked[i]), p.decayedWeight(ranked[j])
		if wi != wj {
			return wi > wj
		}
		return ranked[i].id < ranked[j].id
	})
	return ranked
}

// NodeWeight exposes a hosted node's decayed ranking weight (testing and
// introspection).
func (p *Peer) NodeWeight(node NodeID) float64 {
	p.foldFastTouches()
	hn, ok := p.hosted[node]
	if !ok {
		return 0
	}
	return p.decayedWeight(hn)
}

// SetMeta updates an owned node's metadata (owner-only mutation, §2.3),
// bumping its version. It reports whether the peer owns the node.
func (p *Peer) SetMeta(node NodeID, attrs map[string]string) bool {
	hn, ok := p.hosted[node]
	if !ok || !hn.owned {
		return false
	}
	hn.meta.Version++
	hn.meta.Attrs = attrs
	p.markDirty(hn)
	if p.journal != nil {
		p.journal(&HostedMutation{Kind: MutMeta, Node: node, Meta: hn.meta})
	}
	return true
}

// MetaOf returns the metadata this peer holds for a hosted node.
func (p *Peer) MetaOf(node NodeID) (Meta, bool) {
	hn, ok := p.hosted[node]
	if !ok {
		return Meta{}, false
	}
	return hn.meta.Clone(), true
}

// SetData stores an owned node's application data (owner-only, like meta).
// It reports whether the peer owns the node.
func (p *Peer) SetData(node NodeID, data []byte) bool {
	hn, ok := p.hosted[node]
	if !ok || !hn.owned {
		return false
	}
	hn.data = append([]byte(nil), data...)
	hn.hasData = true
	p.markDirty(hn)
	if p.journal != nil {
		p.journal(&HostedMutation{Kind: MutData, Node: node, Data: hn.data})
	}
	return true
}

// DataOf returns a copy of the node's data if this peer owns it.
func (p *Peer) DataOf(node NodeID) ([]byte, bool) {
	hn, ok := p.hosted[node]
	if !ok || !hn.owned || hn.data == nil {
		return nil, false
	}
	return append([]byte(nil), hn.data...), true
}
