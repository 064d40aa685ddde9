// Package gateway implements the TerraDir edge tier: a stateless front door
// that terminates cheap client connections (HTTP/JSON and the binary wire
// protocol) and multiplexes them onto a small pool of persistent upstream
// peer connections.
//
// The gateway is not an overlay peer: it owns no namespace nodes, holds no
// replicas, and appears in no membership, ownership, or load table. It
// identifies itself with a reserved client ID (core.ClientID) via the wire
// version-5 hello handshake, and every query it sends carries
// Piggy.From = core.NoServer so peers never mistake it for a replication
// target. What it adds, in four layers:
//
//   - a routing cache fed by the digest/advert/path traffic it already sees
//     in results, steering repeat lookups straight to a replica holder;
//   - single-flight coalescing keyed by destination node — a flash crowd for
//     one name collapses to one upstream query whose result fans out;
//   - hedged requests: after a p99-derived delay the lookup re-issues to a
//     second server from the replica set, first answer wins, the loser's
//     pending entry is cancelled;
//   - per-tenant token-bucket admission control with Retry-After on shed,
//     and graceful drain for rolling restarts.
package gateway

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/telemetry"
)

// invalidNode mirrors namespace.Invalid for OnBehalf fields.
const invalidNode = namespace.Invalid

// Options configures a Gateway. Tree, Self, Peers and Wire are required.
type Options struct {
	// Tree is the deployment's shared namespace (same spec/seed as peers).
	Tree *namespace.Tree
	// Self is the gateway's reserved client ID (core.ClientID(ordinal)).
	// Distinct gateways — and wire clients behind this gateway — must use
	// distinct ordinals.
	Self core.ServerID
	// Peers lists the upstream pool members (overlay server IDs). Their
	// addresses live in the Wire transport's address map.
	Peers []core.ServerID
	// Wire is the gateway's client-role transport: its dialed connections
	// reach upstream peers, its listener is the downstream binary-protocol
	// surface. The gateway calls ServeFunc on it; the caller must not.
	Wire *overlay.TCPTransport
	// Send overrides the upstream send path (default: Wire). Tests wrap the
	// transport in an overlay.FaultTransport here.
	Send overlay.Transport

	// UpstreamTimeout bounds one coalesced flight end to end, hedge
	// included. Default 3s.
	UpstreamTimeout time.Duration
	// HedgeAfter fixes the hedge delay. 0 selects the adaptive delay: the
	// p99 of observed upstream attempt latency, clamped to
	// [HedgeMin, HedgeMax]. Negative disables hedging.
	HedgeAfter time.Duration
	// HedgeMin/HedgeMax clamp the adaptive hedge delay. Defaults 2ms / 500ms.
	// HedgeMin also serves as the delay while the latency histogram is empty.
	HedgeMin, HedgeMax time.Duration
	// MaxAttempts caps upstream attempts per flight: the primary, the hedge,
	// and further retries every RetryInterval while the flight's budget
	// lasts — a query lost inside the overlay (e.g. routed into a just-dead
	// peer before the cluster noticed) gets re-tried against a different
	// upstream instead of failing the whole coalesced crowd. Default 3.
	MaxAttempts int
	// RetryInterval spaces attempts after the first hedge. Default 250ms.
	RetryInterval time.Duration

	// ProbeInterval is the liveness-probe period (default 500ms; negative
	// disables probing). ProbeTimeout is the per-probe reply deadline
	// (default 250ms); EjectAfter consecutive misses eject an upstream
	// (default 2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	EjectAfter    int
	// ProbeDest picks the probe destination for a peer — ideally a node the
	// peer owns, so probe success depends only on that peer being alive.
	// Default: the namespace root.
	ProbeDest func(core.ServerID) core.NodeID

	// AdmissionRate is the per-tenant token refill rate in requests/second
	// (0 = unlimited); each tenant's bucket holds max(rate, 1) tokens.
	AdmissionRate float64

	// DrainTimeout bounds how long Drain waits for in-flight requests.
	// Default 5s.
	DrainTimeout time.Duration
}

// routeCacheSize bounds the routing cache.
const routeCacheSize = 4096

func (o *Options) fill() error {
	if o.Tree == nil {
		return fmt.Errorf("gateway: Options.Tree is required")
	}
	if !core.IsClient(o.Self) {
		return fmt.Errorf("gateway: Options.Self must be a core.ClientID, got %d", o.Self)
	}
	if len(o.Peers) == 0 {
		return fmt.Errorf("gateway: Options.Peers is empty")
	}
	if o.Wire == nil {
		return fmt.Errorf("gateway: Options.Wire is required")
	}
	if o.Send == nil {
		o.Send = o.Wire
	}
	if o.UpstreamTimeout <= 0 {
		o.UpstreamTimeout = 3 * time.Second
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = 2 * time.Millisecond
	}
	if o.HedgeMax <= 0 {
		o.HedgeMax = 500 * time.Millisecond
	}
	if o.HedgeMax < o.HedgeMin {
		o.HedgeMax = o.HedgeMin
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 250 * time.Millisecond
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 250 * time.Millisecond
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 2
	}
	if o.ProbeDest == nil {
		root := o.Tree.Root()
		o.ProbeDest = func(core.ServerID) core.NodeID { return root }
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return nil
}

// Result is one gateway lookup outcome, as surfaced to clients.
type Result struct {
	OK        bool
	Reason    core.FailReason
	Node      core.NodeID
	Name      string
	Hops      int
	Servers   []core.ServerID // replica set from the resolving peer's map
	Latency   time.Duration
	Hedged    bool // a hedge attempt was issued for this flight
	HedgeWon  bool // ... and it answered first
	Coalesced bool // this request rode an already in-flight lookup
}

// attemptReply is one upstream answer, matched to its attempt.
type attemptReply struct {
	res *core.ResultMsg
	qid uint64
	lat time.Duration
}

// pendingAttempt is one outstanding upstream query awaiting its result.
type pendingAttempt struct {
	ch     chan attemptReply
	peer   core.ServerID
	sentAt time.Time
	probe  bool
}

// flight is one coalesced in-flight lookup; waiters block on done.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// Gateway is the edge-tier front door. Create with New, then attach the
// HTTP surface with StartHTTP; the wire surface is live from New on.
type Gateway struct {
	opts  Options
	self  core.ServerID
	tree  *namespace.Tree
	wire  *overlay.TCPTransport
	send  overlay.Transport
	reg   *telemetry.Registry
	m     *metrics
	pool  *pool
	cache *routeCache
	adm   *admission

	seq atomic.Uint64 // query-ID source (attempts and probes)

	pmu     sync.Mutex
	pending map[uint64]pendingAttempt

	fmu      sync.Mutex
	flights  map[core.NodeID]*flight
	inflight atomic.Int64 // client requests being served (drain barrier)

	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	httpSrv *httpServer
}

// New validates opts, wires the gateway into its transport (ServeFunc) and
// starts the upstream prober. The wire surface is immediately live.
func New(opts Options) (*Gateway, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	g := &Gateway{
		opts:    opts,
		self:    opts.Self,
		tree:    opts.Tree,
		wire:    opts.Wire,
		send:    opts.Send,
		reg:     telemetry.NewRegistry(),
		pool:    newPool(opts.Peers),
		cache:   newRouteCache(routeCacheSize),
		adm:     newAdmission(opts.AdmissionRate),
		pending: make(map[uint64]pendingAttempt),
		flights: make(map[core.NodeID]*flight),
		stop:    make(chan struct{}),
	}
	g.m = newMetrics(g.reg,
		func() float64 { return float64(g.pool.healthyCount()) },
		func() float64 { return float64(g.inflight.Load()) },
		func() float64 { return float64(g.cache.len()) },
	)
	g.wire.ServeFunc(g.onMessage)
	if opts.ProbeInterval > 0 {
		g.wg.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// Registry returns the gateway's metrics registry.
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// Draining reports whether Drain has begun.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Drain begins a graceful shutdown: new requests are refused (HTTP 503 +
// Retry-After, wire FailShed) while in-flight ones finish, bounded by
// DrainTimeout. It returns once the gateway is idle or the timeout passes.
func (g *Gateway) Drain() {
	g.draining.Store(true)
	deadline := time.Now().Add(g.opts.DrainTimeout)
	for g.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops the prober and the HTTP surface and releases every waiter.
// The wire transport is the caller's to close (it owns the listener).
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	if g.httpSrv != nil {
		g.httpSrv.close()
	}
	g.wg.Wait()
}

// addPending registers an outstanding upstream attempt.
func (g *Gateway) addPending(qid uint64, peer core.ServerID, ch chan attemptReply, probe bool) {
	g.pmu.Lock()
	g.pending[qid] = pendingAttempt{ch: ch, peer: peer, sentAt: time.Now(), probe: probe}
	g.pmu.Unlock()
}

// removePending cancels an attempt: a result arriving afterwards finds no
// entry and is dropped (counted as late). This is the entire cancellation
// mechanism — the overlay has no wire-level cancel, and needs none: the
// abandoned query completes at the peer and its result frame is discarded
// here at the edge.
func (g *Gateway) removePending(qids ...uint64) {
	g.pmu.Lock()
	for _, qid := range qids {
		delete(g.pending, qid)
	}
	g.pmu.Unlock()
}

// onMessage is the transport dispatch: results for our attempts, and
// queries from downstream wire clients. It runs on connection read
// goroutines and must not block.
func (g *Gateway) onMessage(m core.Message) {
	switch msg := m.(type) {
	case *core.ResultMsg:
		g.pmu.Lock()
		a, ok := g.pending[msg.QueryID]
		if ok {
			delete(g.pending, msg.QueryID)
		}
		g.pmu.Unlock()
		if !ok {
			g.m.lateResults.Inc()
			return
		}
		lat := time.Since(a.sentAt)
		g.pool.observeAlive(a.peer)
		g.feedCache(msg)
		if !a.probe {
			g.m.upstreamLatency.Observe(lat.Seconds())
		}
		// Buffered for every possible writer; never blocks.
		a.ch <- attemptReply{res: msg, qid: msg.QueryID, lat: lat}
	case *core.QueryMsg:
		// A downstream wire client's lookup (it hello'd on our listener).
		if !core.IsClient(msg.Source) || msg.Source == g.self {
			return
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.serveWire(msg)
		}()
	}
}

// feedCache harvests routing hints from one result: the resolved node's
// replica map, every propagated path entry, and piggybacked adverts.
func (g *Gateway) feedCache(res *core.ResultMsg) {
	if res.OK {
		g.cache.put(res.Dest, res.Map.Servers)
	}
	for _, pe := range res.Path {
		g.cache.put(pe.Node, pe.Map.Servers)
	}
	for _, ad := range res.Piggy.Adverts {
		g.cache.merge(ad.Node, ad.Servers)
	}
}

// LookupName resolves a fully-qualified name through the overlay.
func (g *Gateway) LookupName(ctx context.Context, name string) (Result, error) {
	node := g.tree.Lookup(name)
	if node == invalidNode {
		return Result{}, fmt.Errorf("gateway: no such name %q", name)
	}
	return g.Lookup(ctx, node)
}

// Lookup resolves one node, coalescing with any in-flight lookup for the
// same destination. The flight leader drives the upstream exchange on the
// gateway's own timeout budget (so one impatient client cannot starve the
// crowd behind it); waiters respect their own ctx.
func (g *Gateway) Lookup(ctx context.Context, node core.NodeID) (Result, error) {
	if node < 0 || int(node) >= g.tree.Len() {
		return Result{}, fmt.Errorf("gateway: no such node %d", node)
	}
	g.fmu.Lock()
	if f, ok := g.flights[node]; ok {
		g.fmu.Unlock()
		g.m.coalesceHits.Inc()
		select {
		case <-f.done:
			res := f.res
			res.Coalesced = true
			return res, f.err
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-g.stop:
			return Result{}, fmt.Errorf("gateway: closed")
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flights[node] = f
	g.fmu.Unlock()
	g.m.flights.Inc()

	f.res, f.err = g.doLookup(node)

	g.fmu.Lock()
	delete(g.flights, node)
	g.fmu.Unlock()
	close(f.done)
	return f.res, f.err
}

// hedgeDelay derives the hedge trigger: fixed when configured, else the p99
// of observed upstream latency clamped to [HedgeMin, HedgeMax].
func (g *Gateway) hedgeDelay() time.Duration {
	if g.opts.HedgeAfter != 0 {
		return g.opts.HedgeAfter
	}
	d := time.Duration(g.m.upstreamLatency.Quantile(0.99) * float64(time.Second))
	if d < g.opts.HedgeMin {
		d = g.opts.HedgeMin
	}
	if d > g.opts.HedgeMax {
		d = g.opts.HedgeMax
	}
	return d
}

// launchAttempt sends one upstream query for node, preferring cached
// replica holders, and registers it on ch. exclude skips the peer a
// previous attempt used.
func (g *Gateway) launchAttempt(node core.NodeID, ch chan attemptReply, exclude core.ServerID, cached []core.ServerID) (uint64, core.ServerID, bool) {
	peer, ok := g.pool.pick(cached, exclude)
	if !ok {
		return 0, core.NoServer, false
	}
	qid := g.seq.Add(1)
	g.addPending(qid, peer, ch, false)
	q := &core.QueryMsg{
		QueryID:  qid,
		Dest:     node,
		Source:   g.self,
		OnBehalf: invalidNode,
		// From must be NoServer: peers absorb piggybacks into their load and
		// replication tables, and the gateway must never appear there.
		Piggy: core.Piggyback{From: core.NoServer},
	}
	g.m.upstreamQueries.Inc()
	if err := g.send.Send(g.self, peer, q); err != nil {
		g.removePending(qid)
		g.m.upstreamErrors.Inc()
		return 0, core.NoServer, false
	}
	return qid, peer, true
}

// doLookup drives one coalesced flight: primary attempt, hedge after the
// delay, first answer wins, losers cancelled by pending-table removal.
func (g *Gateway) doLookup(node core.NodeID) (Result, error) {
	start := time.Now()
	cached := g.cache.get(node)
	if len(cached) > 0 {
		g.m.cacheHits.Inc()
	} else {
		g.m.cacheMisses.Inc()
	}

	// Capacity for every attempt: replies land without blocking the read
	// goroutine even if this flight has already returned.
	ch := make(chan attemptReply, g.opts.MaxAttempts)
	qid1, peer1, ok := g.launchAttempt(node, ch, core.NoServer, cached)
	if !ok {
		g.m.failures.Inc()
		return Result{}, fmt.Errorf("gateway: no usable upstream")
	}
	attempts := []uint64{qid1}
	defer func() { g.removePending(attempts...) }()

	overall := time.NewTimer(g.opts.UpstreamTimeout)
	defer overall.Stop()

	// hedgeTimer paces the extra attempts: the first after the (p99-derived
	// or fixed) hedge delay, further ones every RetryInterval up to
	// MaxAttempts. Hedging off or a single-peer pool leaves hedgeC nil.
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if g.opts.HedgeAfter >= 0 && len(g.pool.ids) > 1 {
		hedgeTimer = time.NewTimer(g.hedgeDelay())
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	hedged := false
	lastPeer := peer1
	replies := 0
	for {
		select {
		case a := <-ch:
			replies++
			if !a.res.OK {
				// A failed answer during churn (e.g. the owner died and no
				// survivor has adopted its partition yet) is not final: retry
				// immediately on a different peer while the attempt budget
				// lasts, or keep waiting for an outstanding attempt.
				if len(attempts) < g.opts.MaxAttempts {
					if qid, peer, ok2 := g.launchAttempt(node, ch, lastPeer, cached); ok2 {
						lastPeer = peer
						attempts = append(attempts, qid)
						continue
					}
				}
				if replies < len(attempts) {
					continue // another attempt is still in flight
				}
				// Every attempt answered and none succeeded.
			}
			res := Result{
				OK:      a.res.OK,
				Reason:  a.res.Reason,
				Node:    node,
				Name:    g.tree.Name(node),
				Hops:    a.res.Hops,
				Servers: a.res.Map.Servers,
				Latency: time.Since(start),
				Hedged:  hedged,
			}
			if hedged && a.qid != qid1 {
				res.HedgeWon = true
				g.m.hedgeWon.Inc()
			}
			if !res.OK {
				g.m.failures.Inc()
			}
			g.m.latency.Observe(res.Latency.Seconds())
			return res, nil
		case <-hedgeC:
			if len(attempts) < g.opts.MaxAttempts {
				if qid, peer, ok2 := g.launchAttempt(node, ch, lastPeer, cached); ok2 {
					hedged = true
					lastPeer = peer
					attempts = append(attempts, qid)
					g.m.hedgeFired.Inc()
				}
			}
			if len(attempts) < g.opts.MaxAttempts {
				hedgeTimer.Reset(g.opts.RetryInterval)
			} else {
				hedgeC = nil
			}
		case <-overall.C:
			g.m.failures.Inc()
			g.m.timeouts.Inc()
			g.m.latency.Observe(time.Since(start).Seconds())
			return Result{}, fmt.Errorf("gateway: lookup %d timed out after %s", node, g.opts.UpstreamTimeout)
		case <-g.stop:
			return Result{}, fmt.Errorf("gateway: closed")
		}
	}
}

// serveWire answers one downstream binary-protocol lookup: admission by
// wire client ID, then the same coalesced/hedged path as HTTP, with the
// outcome returned as a ResultMsg over the client's hello-registered route.
func (g *Gateway) serveWire(q *core.QueryMsg) {
	reply := &core.ResultMsg{QueryID: q.QueryID, Dest: q.Dest}
	if g.draining.Load() {
		reply.Reason = core.FailShed
		g.m.shedWire.Inc()
		g.replyWire(q.Source, reply)
		return
	}
	if ok, _ := g.adm.allow(fmt.Sprintf("wire:%d", q.Source)); !ok {
		reply.Reason = core.FailShed
		g.m.shedWire.Inc()
		g.replyWire(q.Source, reply)
		return
	}
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	g.m.requestsWire.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), g.opts.UpstreamTimeout+time.Second)
	res, err := g.Lookup(ctx, q.Dest)
	cancel()
	if err != nil {
		reply.Reason = core.FailNoRoute
	} else {
		reply.OK = res.OK
		reply.Reason = res.Reason
		reply.Hops = res.Hops
		reply.Map = core.NodeMap{Servers: res.Servers}
	}
	g.replyWire(q.Source, reply)
}

func (g *Gateway) replyWire(to core.ServerID, res *core.ResultMsg) {
	if err := g.wire.Send(g.self, to, res); err != nil {
		g.m.upstreamErrors.Inc()
	}
}
