package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
)

// upstream is one pool member. healthy is flipped only by the prober;
// pickers read it lock-free.
type upstream struct {
	id      core.ServerID
	healthy atomic.Bool
	probing atomic.Bool // a probe for this peer is in flight
	missed  atomic.Int32
}

// pool is the gateway's set of upstream peers. Selection prefers
// cache-advertised replica holders, then rotates round-robin over healthy
// members; when everything looks dead it falls back to any member (trying a
// possibly-dead peer beats shedding — the hedge covers the miss).
type pool struct {
	ids []core.ServerID // stable order
	ups map[core.ServerID]*upstream
	rr  atomic.Uint64
}

func newPool(peers []core.ServerID) *pool {
	p := &pool{ups: make(map[core.ServerID]*upstream, len(peers))}
	for _, id := range peers {
		if _, dup := p.ups[id]; dup {
			continue
		}
		u := &upstream{id: id}
		u.healthy.Store(true)
		p.ups[id] = u
		p.ids = append(p.ids, id)
	}
	return p
}

// pick chooses one upstream, preferring healthy members of preferred (the
// cached replica set for the destination), then any healthy member in
// round-robin order, then — as a last resort — any member at all. exclude
// (core.NoServer for none) skips a peer already tried by this flight.
func (p *pool) pick(preferred []core.ServerID, exclude core.ServerID) (core.ServerID, bool) {
	for _, id := range preferred {
		if id == exclude {
			continue
		}
		if u, ok := p.ups[id]; ok && u.healthy.Load() {
			return id, true
		}
	}
	n := len(p.ids)
	if n == 0 {
		return core.NoServer, false
	}
	start := int(p.rr.Add(1) - 1)
	for i := 0; i < n; i++ {
		id := p.ids[(start+i)%n]
		if id != exclude && p.ups[id].healthy.Load() {
			return id, true
		}
	}
	for i := 0; i < n; i++ {
		id := p.ids[(start+i)%n]
		if id != exclude {
			return id, true
		}
	}
	return core.NoServer, false
}

// observeAlive records evidence of life from real traffic (an upstream
// answered a query). It resets the probe-miss streak but never reinstates an
// ejected peer by itself — reinstatement is the prober's call, so one stale
// in-flight reply can't resurrect a dead peer.
func (p *pool) observeAlive(id core.ServerID) {
	if u, ok := p.ups[id]; ok {
		u.missed.Store(0)
	}
}

// probeLoop runs a probe round every probeInterval until stop closes.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.probeRound()
		}
	}
}

// probeRound probes every pool member that has no probe in flight, each on
// its own goroutine, and returns a group that is done once each of them has
// answered or missed. Probes flip health state: ejectAfter consecutive
// misses eject, one hit reinstates. They ride the same pending-reply table
// as real lookups (the prober owns its reply channels), so a probe reply is
// indistinguishable from a fast lookup on the wire.
func (g *Gateway) probeRound() *sync.WaitGroup {
	round := new(sync.WaitGroup)
	for _, id := range g.pool.ids {
		u := g.pool.ups[id]
		if !u.probing.CompareAndSwap(false, true) {
			continue // previous probe still in flight
		}
		g.wg.Add(1)
		round.Add(1)
		go func() {
			defer g.wg.Done()
			defer round.Done()
			defer u.probing.Store(false)
			g.probeOnce(u)
		}()
	}
	return round
}

// probeOnce sends one liveness lookup to u and applies the hit/miss state
// machine. The probe destination is a node the peer can resolve locally
// (Options.ProbeDest), so probe success depends only on the probed peer.
func (g *Gateway) probeOnce(u *upstream) {
	qid := g.seq.Add(1)
	ch := make(chan attemptReply, 1)
	g.addPending(qid, u.id, ch, true)
	defer g.removePending(qid)
	q := &core.QueryMsg{
		QueryID:  qid,
		Dest:     g.opts.ProbeDest(u.id),
		Source:   g.self,
		OnBehalf: invalidNode,
		Piggy:    core.Piggyback{From: core.NoServer},
	}
	if err := g.send.Send(g.self, u.id, q); err != nil {
		g.probeMissed(u)
		return
	}
	timer := time.NewTimer(probeTimeout)
	defer timer.Stop()
	select {
	case <-ch:
		u.missed.Store(0)
		u.healthy.Store(true)
	case <-timer.C:
		g.probeMissed(u)
	case <-g.stop:
	}
}

func (g *Gateway) probeMissed(u *upstream) {
	if int(u.missed.Add(1)) >= ejectAfter && u.healthy.Load() {
		u.healthy.Store(false)
		g.m.ejections.Inc()
		// Scrub the dead peer from cached replica sets so cache-directed
		// picks stop steering at it immediately.
		g.cache.drop(u.id)
	}
}
