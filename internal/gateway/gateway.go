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

	// ProbeDest picks the probe destination for a peer — ideally a node the
	// peer owns, so probe success depends only on that peer being alive.
	// Default: the namespace root.
	ProbeDest func(core.ServerID) core.NodeID

	// AdmissionRate is the per-tenant token refill rate in requests/second
	// (0 = unlimited); each tenant's bucket holds max(rate, 1) tokens.
	AdmissionRate float64
}

// routeCacheSize bounds the routing cache.
const routeCacheSize = 4096

// The flight schedule (DESIGN.md §12) is the overlay's lookup attempt
// schedule with a hedge in front: the primary attempt, a hedge after the p99
// of observed upstream latency clamped to [hedgeMin, hedgeMax], then an
// attempt every overlay.LookupInterval up to overlay.LookupAttempts, the last
// due by 2.5 s, inside overlay.LookupTimeout. The attempts carry a flight
// across the time a crashed peer takes to be ejected and handed off.
const (
	hedgeMin = 2 * time.Millisecond
	hedgeMax = 500 * time.Millisecond
)

// The liveness prober: every probeInterval each upstream gets one probe,
// answered within probeTimeout or missed; ejectAfter consecutive misses
// eject it, one answer reinstates it.
const (
	probeInterval = 500 * time.Millisecond
	probeTimeout  = 250 * time.Millisecond
	ejectAfter    = 2
)

// drainTimeout bounds how long Drain waits for in-flight requests.
const drainTimeout = 5 * time.Second

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
	if o.ProbeDest == nil {
		root := o.Tree.Root()
		o.ProbeDest = func(core.ServerID) core.NodeID { return root }
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

// flight is one coalesced in-flight lookup. done is made under fmu by the
// first caller that coalesces onto it (most flights have none), and waiters
// block on it. qids backs the flight's attempt IDs.
type flight struct {
	done chan struct{}
	res  Result
	err  error
	qids [overlay.LookupAttempts]uint64
}

// Gateway is the edge-tier front door. Create with New, then attach the
// HTTP surface with StartHTTP; the wire surface is live, and every upstream
// dialled, from New on.
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

// New validates opts, wires the gateway into its transport (ServeFunc),
// runs the first round of liveness probes and starts the prober. It returns
// once every upstream has answered or missed its first probe, at most
// probeTimeout later: a peer can answer the gateway only over a connection
// the gateway opened, so before that round a lookup resolved by a peer the
// gateway had not dialled would lose its answer.
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
	g.m = newMetrics(g.reg)
	g.wire.ServeFunc(g.onMessage)
	g.probeRound().Wait()
	g.wg.Add(1)
	go g.probeLoop()
	return g, nil
}

// Registry returns the gateway's metrics registry.
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// Draining reports whether Drain has begun.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Drain begins a graceful shutdown: new requests are refused (HTTP 503 +
// Retry-After, wire FailShed) while in-flight ones finish, bounded by
// drainTimeout. It returns once the gateway is idle or the timeout passes.
func (g *Gateway) Drain() {
	g.draining.Store(true)
	deadline := time.Now().Add(drainTimeout)
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
	// A result to a client carries its answer once, not again as the last
	// path entry; the answer still counts as a use of its entry, as the
	// repeat did, and restores it if a path entry evicted it.
	if res.OK && g.cache.get(res.Dest) == nil {
		g.cache.put(res.Dest, res.Map.Servers)
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
		if f.done == nil {
			f.done = make(chan struct{})
		}
		done := f.done
		g.fmu.Unlock()
		g.m.coalesceHits.Inc()
		select {
		case <-done:
			res := f.res
			res.Coalesced = true
			return res, f.err
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-g.stop:
			return Result{}, fmt.Errorf("gateway: closed")
		}
	}
	f := &flight{}
	g.flights[node] = f
	g.fmu.Unlock()
	g.m.flights.Inc()

	f.res, f.err = g.doLookup(node, f)

	g.fmu.Lock()
	delete(g.flights, node)
	if f.done != nil {
		close(f.done)
	}
	g.fmu.Unlock()
	return f.res, f.err
}

// hedgeDelay derives the hedge trigger: the p99 of observed upstream
// latency clamped to [hedgeMin, hedgeMax].
func (g *Gateway) hedgeDelay() time.Duration {
	d := time.Duration(g.m.upstreamLatency.Quantile(0.99) * float64(time.Second))
	return min(max(d, hedgeMin), hedgeMax)
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
		return 0, core.NoServer, false
	}
	return qid, peer, true
}

// doLookup drives one coalesced flight: primary attempt, hedge after the
// delay, first answer wins, losers cancelled by pending-table removal.
func (g *Gateway) doLookup(node core.NodeID, f *flight) (Result, error) {
	start := time.Now()
	cached := g.cache.get(node)
	if len(cached) > 0 {
		g.m.cacheHits.Inc()
	} else {
		g.m.cacheMisses.Inc()
	}

	// Capacity for every attempt: replies land without blocking the read
	// goroutine even if this flight has already returned.
	ch := make(chan attemptReply, overlay.LookupAttempts)
	qid1, peer1, ok := g.launchAttempt(node, ch, core.NoServer, cached)
	if !ok {
		return Result{}, fmt.Errorf("gateway: no usable upstream")
	}
	attempts := append(f.qids[:0], qid1)
	defer func() { g.removePending(attempts...) }()

	// One timer paces the flight. It fires at next: the hedge, after the
	// hedge delay, then a retry every LookupInterval, LookupAttempts-1 times
	// in all, and then the deadline. A single-peer pool leaves no attempt to
	// pace.
	deadline := start.Add(overlay.LookupTimeout)
	next := deadline
	if len(g.pool.ids) > 1 {
		next = start.Add(g.hedgeDelay())
	}
	timer := time.NewTimer(time.Until(next))
	defer timer.Stop()

	paced := 1 // the primary, then one per timer firing before the deadline
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
				if len(attempts) < overlay.LookupAttempts {
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
			g.m.latency.Observe(res.Latency.Seconds())
			return res, nil
		case <-timer.C:
			if next == deadline {
				g.m.timeouts.Inc()
				g.m.latency.Observe(time.Since(start).Seconds())
				return Result{}, fmt.Errorf("gateway: lookup %d timed out after %s", node, overlay.LookupTimeout)
			}
			if len(attempts) < overlay.LookupAttempts {
				if qid, peer, ok2 := g.launchAttempt(node, ch, lastPeer, cached); ok2 {
					hedged = true
					lastPeer = peer
					attempts = append(attempts, qid)
					g.m.hedgeFired.Inc()
				}
			}
			next = deadline
			if paced++; paced < overlay.LookupAttempts && len(attempts) < overlay.LookupAttempts {
				next = time.Now().Add(overlay.LookupInterval)
			}
			timer.Reset(time.Until(next)) // its channel was just drained
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
	res, err := g.Lookup(context.Background(), q.Dest) // the flight is bounded
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
	g.wire.Send(g.self, to, res)
}
