package core

// This file implements the adaptive replication protocol of §3: load
// balancing sessions (probe the least-loaded known server, ship the
// top-ranked hosted nodes), the Frepl hosting bound with lowest-rank-first
// eviction, and the post-transfer load hysteresis.

type replState uint8

const (
	replIdle replState = iota
	replAwaitProbe
	replAwaitReply
)

type replSession struct {
	id        uint64
	state     replState
	attempts  int
	tried     map[ServerID]bool
	candidate ServerID
	sentNodes []NodeID
}

// afterQuery runs the paper's trigger check: "a server checks its load after
// each processed query" (§3.3 step 1).
func (p *Peer) afterQuery() {
	if !p.cfg.ReplicationEnabled {
		return
	}
	thigh := p.cfg.Thigh
	if p.cfg.AdaptiveThigh {
		if t := p.sysLoadEst + p.cfg.DeltaMin; t > thigh {
			thigh = t
		}
	}
	eff := p.effLoad()
	p.trackWatermark(eff >= thigh)
	if p.sess.state != replIdle {
		return
	}
	now := p.env.Now()
	if now-p.lastSessionEnd < p.cfg.ReplicationCooldown {
		return
	}
	if eff < thigh {
		return
	}
	if len(p.hostedList) == 0 {
		return
	}
	p.startSession()
}

func (p *Peer) startSession() {
	p.nextSession++
	p.sess = replSession{
		id:    p.nextSession,
		tried: make(map[ServerID]bool),
	}
	p.Stats.SessionsStarted++
	p.tryNextCandidate()
}

// tryNextCandidate picks the minimum-load server among those this peer knows
// about (§3.3 step 2) that it has not yet tried this session, and probes its
// actual load. Load knowledge is gossip, so the probe is what decides.
func (p *Peer) tryNextCandidate() {
	if p.sess.attempts >= p.cfg.ReplicationAttempts {
		p.abortSession()
		return
	}
	p.sess.attempts++
	var best ServerID = NoServer
	bestLoad := 2.0
	for s, li := range p.knownLoads {
		if s == p.ID || p.sess.tried[s] {
			continue
		}
		if li.load < bestLoad || (li.load == bestLoad && (best == NoServer || s < best)) {
			best, bestLoad = s, li.load
		}
	}
	if best == NoServer {
		p.abortSession()
		return
	}
	// Gossip pre-filter: when even the best-known load shows no usable gap,
	// probing is pointless — every probe would come back with ls−ld < δmin
	// (e.g. global saturation). Abort cheaply and retry after the cooldown.
	if p.effLoad()-bestLoad < p.cfg.DeltaMin {
		p.abortSession()
		return
	}
	p.sess.tried[best] = true
	p.sess.candidate = best
	p.sess.state = replAwaitProbe
	sid := p.sess.id
	p.sendControl(best, &LoadProbeMsg{Session: sid, From: p.ID, Piggy: p.piggyback()})
	p.env.After(p.cfg.ProbeTimeout, func() { p.sessionTimeout(sid, replAwaitProbe) })
}

func (p *Peer) sessionTimeout(id uint64, inState replState) {
	if p.sess.id != id || p.sess.state != inState {
		return
	}
	p.tryNextCandidate()
}

func (p *Peer) abortSession() {
	if p.sess.state != replIdle || p.sess.id != 0 {
		p.Stats.SessionsAborted++
	}
	p.sess = replSession{}
	p.lastSessionEnd = p.env.Now()
}

func (p *Peer) finishSession() {
	p.sess = replSession{}
	p.lastSessionEnd = p.env.Now()
}

// HandleControl dispatches non-query protocol messages. Drivers route every
// message that is not a *QueryMsg or *ResultMsg here.
func (p *Peer) HandleControl(m Message) {
	switch msg := m.(type) {
	case *LoadProbeMsg:
		p.absorbPiggy(&msg.Piggy)
		p.sendControl(msg.From, &LoadProbeReply{
			Session: msg.Session,
			From:    p.ID,
			Load:    p.effLoad(),
			Piggy:   p.piggyback(),
		})
	case *LoadProbeReply:
		p.absorbPiggy(&msg.Piggy)
		p.handleProbeReply(msg)
	case *ReplicateRequest:
		p.absorbPiggy(&msg.Piggy)
		p.handleReplicateRequest(msg)
	case *ReplicateReply:
		p.absorbPiggy(&msg.Piggy)
		p.handleReplicateReply(msg)
	case *DataRequest:
		p.absorbPiggy(&msg.Piggy)
		// An edge client neither routes nor prunes: its reply carries no
		// digests, as emit's results do not.
		rep := &DataReply{ReqID: msg.ReqID, Node: msg.Node, From: p.ID, Piggy: p.rider(!IsClient(msg.From))}
		if data, ok := p.DataOf(msg.Node); ok {
			rep.OK = true
			rep.Data = data
		}
		p.sendControl(msg.From, rep)
	case *DataReply:
		// Consumed by the driver (overlay) before reaching the peer; absorb
		// the rider and otherwise ignore.
		p.absorbPiggy(&msg.Piggy)
	case *TraceSpanMsg:
		// Span reports are collected by the driver's trace store before
		// reaching the peer; only the rider matters here.
		p.absorbPiggy(&msg.Piggy)
	case *ResultMsg:
		p.HandleResult(msg)
	}
}

// handleProbeReply is §3.3 step 3: with the destination's actual load in
// hand, decide whether the gap justifies a transfer, select the top-ranked
// nodes covering the targeted load fraction, and ship them.
func (p *Peer) handleProbeReply(msg *LoadProbeReply) {
	if p.sess.state != replAwaitProbe || msg.Session != p.sess.id || msg.From != p.sess.candidate {
		return
	}
	ls := p.effLoad()
	ld := msg.Load
	if ls-ld < p.cfg.DeltaMin {
		p.tryNextCandidate()
		return
	}
	payload := p.selectReplicationPayload(ls, ld, msg.From)
	if len(payload) == 0 {
		p.tryNextCandidate()
		return
	}
	p.sess.state = replAwaitReply
	p.sess.sentNodes = p.sess.sentNodes[:0]
	for _, pl := range payload {
		p.sess.sentNodes = append(p.sess.sentNodes, pl.Node)
	}
	sid := p.sess.id
	p.sendControl(msg.From, &ReplicateRequest{
		Session: sid,
		From:    p.ID,
		Load:    ls,
		Nodes:   payload,
		Piggy:   p.piggyback(),
	})
	p.env.After(p.cfg.ProbeTimeout, func() { p.sessionTimeout(sid, replAwaitReply) })
}

// selectReplicationPayload ranks hosted nodes by weight and takes the
// smallest prefix whose weight share reaches (ls−ld)/(2·ls) (§3.3 step 3),
// skipping nodes the destination already (plausibly) hosts.
func (p *Peer) selectReplicationPayload(ls, ld float64, dest ServerID) []ReplicaPayload {
	ranked := p.rankHosted()
	total := 0.0
	for _, hn := range ranked {
		total += p.decayedWeight(hn)
	}
	target := (ls - ld) / (2 * ls)
	var payload []ReplicaPayload
	covered := 0.0
	for _, hn := range ranked {
		if p.digestSaysHosts(dest, hn.id) {
			continue // destination already hosts it; replicating is a no-op
		}
		payload = append(payload, p.buildPayload(hn))
		if total > 0 {
			covered += p.decayedWeight(hn) / total
			if covered >= target {
				break
			}
		} else {
			break // no weight signal: ship just the first-ranked node
		}
	}
	return payload
}

// digestSaysHosts is the affirmative-direction digest check used to avoid
// shipping a replica the destination already holds. Unlike digestSays (which
// is permissive when no digest is known), this requires positive evidence.
func (p *Peer) digestSaysHosts(server ServerID, node NodeID) bool {
	if !p.cfg.DigestsEnabled {
		return false
	}
	if p.OracleHosts != nil {
		for _, s := range p.OracleHosts(node) {
			if s == server {
				return true
			}
		}
		return false
	}
	e, ok := p.digests[server]
	if !ok {
		return false
	}
	return e.filter.Test(NodeKey(node))
}

// buildPayload snapshots the replica state for one hosted node: metadata,
// the node's map (with this peer in it), and its neighbor context — the
// "Replicated" row of Table 1.
func (p *Peer) buildPayload(hn *hostedNode) ReplicaPayload {
	pl := ReplicaPayload{
		Node:       hn.id,
		Meta:       hn.meta.Clone(),
		SelfMap:    p.outgoingMap(hn.id),
		WeightHint: p.decayedWeight(hn),
	}
	for _, nb := range hn.neighborIDs {
		if e, ok := p.neighborMaps[nb]; ok && e.m.Len() > 0 {
			pl.Neighbors = append(pl.Neighbors, NeighborMap{Node: nb, Map: e.m.Clone()})
		}
	}
	return pl
}

// handleReplicateRequest is the destination side of §3.3: re-verify the load
// gap, install what fits under Frepl (evicting lowest-ranked replicas), and
// acknowledge with the post-install load.
func (p *Peer) handleReplicateRequest(msg *ReplicateRequest) {
	ld := p.effLoad()
	if msg.Load-ld < p.cfg.DeltaMin {
		p.sendControl(msg.From, &ReplicateReply{
			Session: ServerSession{ID: msg.Session, From: p.ID},
			Load:    ld,
			Piggy:   p.piggyback(),
		})
		return
	}
	var accepted []NodeID
	for i := range msg.Nodes {
		if p.installReplica(&msg.Nodes[i], msg.From) {
			accepted = append(accepted, msg.Nodes[i].Node)
		}
	}
	if len(accepted) > 0 {
		// Hysteresis (§3.3 step 4): both sides adjust toward the midpoint.
		p.loadBias += (msg.Load - ld) / 2
	}
	p.sendControl(msg.From, &ReplicateReply{
		Session:  ServerSession{ID: msg.Session, From: p.ID},
		Accepted: accepted,
		Load:     p.effLoad(),
		Piggy:    p.piggyback(),
	})
}

// installReplica adds one replica, making room under the Frepl bound by
// evicting lowest-ranked replicas first (§3.5). Owned nodes and refreshes of
// already-hosted replicas are handled without consuming capacity.
func (p *Peer) installReplica(pl *ReplicaPayload, from ServerID) bool {
	if hn, ok := p.hosted[pl.Node]; ok {
		// Already hosted: refresh soft state (newest meta wins, maps merge).
		m := p.editSelfMap(hn) // marks hn, so the meta refresh republishes too
		if pl.Meta.Version > hn.meta.Version {
			hn.meta = pl.Meta.Clone()
		}
		m.Merge(&pl.SelfMap, p.cfg.MapSize, p.src, p.keepFor(pl.Node))
		p.ensureSelf(m)
		return false
	}
	max := p.maxReplicas()
	if max <= 0 {
		return false
	}
	// Make room under Frepl by evicting lowest-ranked replicas (§3.5) — but
	// only ones colder than the incoming node's weight hint; otherwise the
	// bounded replica set would thrash between equally hot nodes.
	for p.ReplicaCount() >= max {
		victim := p.lowestRankedReplica()
		if victim == nil || victim.id == pl.Node {
			return false
		}
		if p.decayedWeight(victim) >= pl.WeightHint {
			return false
		}
		p.evictReplica(victim.id)
	}
	hn := &hostedNode{
		id:      pl.Node,
		owned:   false,
		hasData: false,
		meta:    pl.Meta.Clone(),
		selfMap: pl.SelfMap.Clone(),
		// Seed the rank from the source's observation so the new replica is
		// not instantly the coldest node on this server.
		weight:  pl.WeightHint / 2,
		weightT: p.env.Now(),
	}
	p.ensureSelf(&hn.selfMap)
	hn.lastUsed = p.env.Now()
	hn.ref = true
	for _, nb := range pl.Neighbors {
		hn.neighborIDs = append(hn.neighborIDs, nb.Node)
		if e, ok := p.neighborMaps[nb.Node]; ok {
			e.refs++
			inc := nb.Map
			p.editNeighborMap(e).Merge(&inc, p.cfg.MapSize, p.src, p.keepFor(nb.Node))
		} else {
			p.addNeighbor(nb.Node, nb.Map.Clone())
		}
		// A neighbor pointer supersedes any cache entry for the same node.
		p.cache.Delete(nb.Node)
	}
	p.cache.Delete(pl.Node)
	p.addHosted(hn)
	if p.cold != nil {
		// A cold copy of this node may still sit in the on-disk index; the
		// fresh (dirty, journaled) entry supersedes it.
		p.cold.clear(pl.Node)
	}
	p.digestDirty = true
	p.journalUpsert(hn)
	p.Stats.ReplicaInstalls++
	if p.tel != nil {
		p.tel.installs.Inc()
	}
	if p.Hooks.OnReplicaInstalled != nil {
		p.Hooks.OnReplicaInstalled(pl.Node, from)
	}
	return true
}

func (p *Peer) lowestRankedReplica() *hostedNode {
	p.foldFastTouches()
	var victim *hostedNode
	var vw float64
	for _, hn := range p.hostedList {
		if hn.owned {
			continue
		}
		w := p.decayedWeight(hn)
		if victim == nil || w < vw || (w == vw && hn.id < victim.id) {
			victim, vw = hn, w
		}
	}
	return victim
}

// handleReplicateReply is §3.3 steps 4–5 on the source side: on acceptance,
// advertise the new replicas and apply the hysteresis bias; on refusal, try
// the next candidate.
func (p *Peer) handleReplicateReply(msg *ReplicateReply) {
	if p.sess.state != replAwaitReply || msg.Session.ID != p.sess.id || msg.Session.From != p.sess.candidate {
		return
	}
	dest := msg.Session.From
	p.recordLoad(dest, msg.Load, p.env.Now())
	if len(msg.Accepted) == 0 {
		p.tryNextCandidate()
		return
	}
	ls := p.effLoad()
	for _, node := range msg.Accepted {
		if hn, ok := p.hosted[node]; ok {
			m := p.editSelfMap(hn)
			m.AddAdvertised(dest, p.cfg.MapSize)
			p.ensureSelf(m)
			p.markDirty(hn)
			if p.journal != nil {
				p.journal(&HostedMutation{Kind: MutMap, Node: node, Map: hn.selfMap})
			}
		}
		// §3.7: advertise the new replica on outgoing messages.
		p.recentAdverts = append(p.recentAdverts, advertRecord{
			node:    node,
			servers: []ServerID{dest},
			created: p.env.Now(),
		})
		if len(p.recentAdverts) > p.cfg.MapSize {
			p.recentAdverts = p.recentAdverts[len(p.recentAdverts)-p.cfg.MapSize:]
		}
	}
	if msg.Load < ls {
		p.loadBias -= (ls - msg.Load) / 2
	}
	p.Stats.SessionsOK++
	p.finishSession()
}

func (p *Peer) sendControl(to ServerID, m Message) {
	p.Stats.ControlSent++
	p.env.Send(to, m)
}

// SessionActive reports whether a load-balancing session is in flight
// (testing/introspection).
func (p *Peer) SessionActive() bool { return p.sess.state != replIdle }

// BuildReplicaPayload snapshots the replica state for a hosted node: the
// state another server needs to host a functionally equivalent replica
// (§2.3). Used by the adaptive protocol internally and by static replication
// bootstrap (the paper §2.3 notes hierarchical bottlenecks can also be
// addressed statically, citing the original TerraDir paper).
func (p *Peer) BuildReplicaPayload(node NodeID) (ReplicaPayload, bool) {
	hn, ok := p.hosted[node]
	if !ok {
		return ReplicaPayload{}, false
	}
	return p.buildPayload(hn), true
}

// InstallReplica installs a replica directly (bootstrap/static-replication
// path). The Frepl bound and lowest-rank eviction apply exactly as for
// protocol-driven installs. It reports whether a new replica was installed.
func (p *Peer) InstallReplica(pl *ReplicaPayload, from ServerID) bool {
	return p.installReplica(pl, from)
}
