// Package overlay runs the TerraDir protocol as a live concurrent system:
// one goroutine per peer driving the same core.Peer state machine the
// simulator uses, over a pluggable Transport (in-process channels for local
// clusters, length-prefixed binary frames over TCP for real deployments).
//
// Each node owns its peer exclusively: every mutation runs on the node's
// event loop, so the core (not concurrency-safe by design) never sees two
// writers at once, as in the simulator. Queries are decided off the loop on
// published snapshots of the peer's routing state (DESIGN.md §10).
package overlay

import (
	"context"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/membership"
	"terradir/internal/namespace"
	"terradir/internal/persist"
	"terradir/internal/rng"
	"terradir/internal/sim"
	"terradir/internal/telemetry"
)

// Options configures a Node.
type Options struct {
	// Config is the protocol configuration (core.DefaultConfig if zero).
	Config core.Config
	// QueueCap bounds the query inbox; arrivals beyond it are dropped, as in
	// the paper's server model. Default 64.
	QueueCap int
	// ServiceCost is the share of a provisioned server's capacity one served
	// query uses: load is served queries in Ω × ServiceCost / Ω, clamped at 1
	// (DESIGN.md §10). Nothing sleeps; the cost is a count, so load does not
	// depend on how fast the host runs. Default 20 µs, 50k queries/s.
	ServiceCost time.Duration
	// Seed seeds the node's deterministic RNG stream.
	Seed uint64
	// TraceSample is the fraction of lookups initiated at this node that
	// carry a distributed trace. 0 means DefaultTraceSample; negative
	// disables tracing.
	TraceSample float64
	// Membership, when non-nil, runs the gossip membership subsystem: SWIM
	// failure detection, versioned ownership handoff, soft-state purging of
	// dead servers, and join/warmup admission. See MembershipOptions.
	Membership *MembershipOptions
	// Persist, when non-nil, enables the durability tier: hosted-state
	// mutations journal to a WAL under Persist.Dir, periodic snapshots bound
	// replay, and a restart recovers its hosted state locally before it
	// touches the network. See PersistOptions and DESIGN.md §13.
	Persist *PersistOptions
}

// DefaultTraceSample is the share of lookups traced when Options.TraceSample
// is 0. A traced lookup sends its initiator one span report per hop. Tracing
// every lookup cost about a fifth of an in-process lookup's CPU, while every
// share at or below 1/16 measured within noise of tracing nothing (DESIGN.md
// §8).
const DefaultTraceSample = 1.0 / 64

// loadWindow is the busy-fraction measurement window Ω (§3.1), the same
// 0.5 s the simulator uses.
const loadWindow = 500 * time.Millisecond

// dataTimeout bounds data-retrieval round trips (Get) when the caller's
// context carries no earlier deadline.
const dataTimeout = 5 * time.Second

// defaultServiceCost is Options.ServiceCost when unset: 50k queries/s, the
// measured CPU cost of one in-process lookup rounded up (DESIGN.md §10).
const defaultServiceCost = 20 * time.Microsecond

func (o *Options) fill(id core.ServerID) {
	if o.Config.MapSize == 0 {
		o.Config = core.DefaultConfig()
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.ServiceCost <= 0 {
		o.ServiceCost = defaultServiceCost
	}
	if o.Seed == 0 {
		o.Seed = uint64(id) + 1
	}
	if o.TraceSample == 0 {
		o.TraceSample = DefaultTraceSample
	}
}

// LookupResult is the client-facing outcome of a lookup (§2.1: name,
// metadata, and a mapping of hosting servers).
type LookupResult struct {
	OK      bool
	Reason  core.FailReason
	Node    core.NodeID
	Name    string
	Meta    core.Meta
	Hosts   []core.ServerID
	Hops    int
	Latency time.Duration
	// TraceID identifies the lookup's distributed trace (0 = untraced); its
	// spans are in Node.Traces(), assembled from each hop's report.
	TraceID uint64
}

// Transport delivers messages between nodes. Implementations must be safe
// for concurrent use.
type Transport interface {
	// Send transmits m from one server to another. Errors are advisory:
	// the protocol is soft-state and tolerates loss.
	Send(from, to core.ServerID, m core.Message) error
	Close() error
}

// TransportStats is a point-in-time snapshot of a transport's counters.
// Counters are cumulative; QueueDepth is a gauge. Transports that do not
// implement a given counter leave it zero.
//
// The queued outbound path conserves messages exactly:
//
//	Enqueued == Sent + QueueDrops + WriteErrors + QueueDepth
//
// holds at any quiescent moment (no Send in flight, writers idle), including
// after Close — every accepted message is eventually written, dropped, or
// still queued, and each is counted exactly once. SendTo (the bootstrap
// direct-dial path) bypasses the queue and participates only in Sent,
// WriteErrors, and the dial counters.
type TransportStats struct {
	Enqueued      uint64 // messages accepted into an outbound queue
	Sent          uint64 // frames written to a socket
	Flushes       uint64 // socket writes (each carries >=1 coalesced frames)
	QueueDrops    uint64 // messages dropped without a write attempt: queue-full evictions (drop-oldest), and queued frames abandoned when a sender retires (SetAddr) or the transport closes
	WriteErrors   uint64 // frames lost to write failures or expired deadlines
	Dials         uint64 // successful connection attempts
	DialErrors    uint64 // failed connection attempts
	Redials       uint64 // successful dials after a connection previously existed
	CorruptFrames uint64 // inbound frames that failed framing or decoding
	UnknownFrames uint64 // well-framed inbound frames of an unrecognized kind (rolling upgrades) — skipped, not corruption
	ConnErrors    uint64 // inbound connections terminated by a non-EOF error
	FaultDrops    uint64 // messages dropped by fault injection (FaultTransport)
	FramesRead    uint64 // frames read off inbound connections (batched reader)
	ReadBatches   uint64 // read-loop wakeups that yielded >=1 frame; FramesRead/ReadBatches is the receive-coalescing factor
	QueueDepth    int    // messages currently queued outbound (gauge)
}

// StatsReporter is implemented by transports that export counters
// (TCPTransport, FaultTransport).
type StatsReporter interface {
	Stats() TransportStats
}

// transportCounters is the internal atomic backing for TransportStats.
type transportCounters struct {
	enqueued, sent, flushes, queueDrops, writeErrors atomic.Uint64
	dials, dialErrors, redials                       atomic.Uint64
	corruptFrames, unknownFrames, connErrors         atomic.Uint64
	framesRead, readBatches                          atomic.Uint64
}

// TransportStats reports the node's transport counters, or a zero snapshot
// (and false) if the transport does not export any.
func (n *Node) TransportStats() (TransportStats, bool) {
	if sr, ok := n.transport.(StatsReporter); ok {
		return sr.Stats(), true
	}
	return TransportStats{}, false
}

type envelope struct {
	msg core.Message
	fn  func()
	// learn marks envelopes whose effects the fast path must observe before
	// serving another query: membership warmup maps and Inspect (which may
	// mutate the peer). The loop republishes the snapshot immediately after
	// executing one. Only guaranteed (blocking) enqueues may be marked — a
	// dropped learn would wedge the fast path closed.
	learn bool
}

// Node is one live TerraDir server: one single-writer event loop over one
// core.Peer (loop.go, DESIGN.md §11).
type Node struct {
	id        core.ServerID
	tree      *namespace.Tree
	opts      Options
	transport Transport

	epoch time.Time
	stop  chan struct{}

	// The event loop's state. peer and meter belong to the loop; queries is
	// the bounded request queue, control the priority queue for everything
	// else.
	peer    *core.Peer
	meter   *sim.LoadMeter
	queries chan *core.QueryMsg
	control chan envelope
	done    chan struct{}

	// served counts queries either executor served that the loop has yet to
	// fold into the meter (charge, load). loadEst is the Float64bits of the
	// last meter reading, for readers outside the loop (the
	// terradir_server_load gauge).
	served  atomic.Int64
	loadEst atomic.Uint64

	nextQID atomic.Uint64
	dropped atomic.Int64

	reg    *telemetry.Registry
	traces *telemetry.TraceStore

	membership *membership.Service
	ownership  *membership.OwnershipTable

	// Persistence tier (nil unless Options.Persist is set); see persist.go.
	store    *persist.Store
	replayed *persist.ReplayState
	snapDone chan struct{}

	warmupStreams *telemetry.Counter

	// Larger-than-RAM hosting (coldload.go; requires the persistence tier).
	// pendingCold parks queries and data requests for hosted-but-on-disk
	// nodes while the loader goroutine reads the node index; it is
	// loop-owned. loadCh wakes the loader.
	ownerOf      func(core.NodeID) core.ServerID // static assignment, for cold installs
	pendingCold  map[core.NodeID]*coldPending
	loadCh       chan core.NodeID
	loaderDone   chan struct{}
	idxHits      *telemetry.Counter
	idxMisses    *telemetry.Counter
	idxEvictions *telemetry.Counter
	idxLoadHist  *telemetry.Histogram

	batchDepthHist *telemetry.Histogram // envelopes drained per loop wakeup
	queueWaitHist  *telemetry.Histogram
	serviceHist    *telemetry.Histogram
	latencyHist    *telemetry.Histogram
	hopsHist       *telemetry.Histogram

	// Lock-free snapshot fast path (see core.RouteSnapshot). sendFn is bound
	// once so per-query fast serves allocate no closure.
	// Learn gating: learnSeq counts learn-marked envelopes enqueued,
	// learnPub those whose effects are published. While they differ the
	// fast path declines queries, which routes them through the loop behind
	// the pending learns (control drains before queries) — sequential
	// callers get exactly the loop's read-your-writes ordering.
	learnSeq      atomic.Uint64
	learnPub      atomic.Uint64
	sendFn        func(core.ServerID, core.Message)
	fastResolved  *telemetry.Counter
	fastForwarded *telemetry.Counter
	fastFailed    *telemetry.Counter
	fastFallbacks *telemetry.Counter

	mu          sync.Mutex
	pending     map[uint64]chan LookupResult
	pendingData map[uint64]chan *core.DataReply
}

// NewNode constructs a node owning the given namespace nodes. ownerOf must
// report the initial owner of every node (all processes in a deployment must
// agree on it; see Assign). Call Start to begin processing and SetTransport
// beforehand.
func NewNode(id core.ServerID, tree *namespace.Tree, owned []core.NodeID, ownerOf func(core.NodeID) core.ServerID, opts Options) (*Node, error) {
	opts.fill(id)
	n := &Node{
		id:          id,
		tree:        tree,
		opts:        opts,
		epoch:       time.Now(),
		stop:        make(chan struct{}),
		meter:       sim.NewLoadMeter(loadWindow.Seconds()),
		queries:     make(chan *core.QueryMsg, opts.QueueCap),
		control:     make(chan envelope, 1024),
		done:        make(chan struct{}),
		pending:     make(map[uint64]chan LookupResult),
		pendingData: make(map[uint64]chan *core.DataReply),
	}
	peer, err := core.NewPeer(id, tree, opts.Config, nodeEnv{n}, rng.New(opts.Seed))
	if err != nil {
		return nil, err
	}
	for _, nd := range owned {
		peer.AddOwned(nd, core.Meta{})
	}
	peer.FinishSetup(ownerOf)
	n.peer = peer
	n.reg = telemetry.NewRegistry()
	n.traces = telemetry.NewTraceStore(telemetry.DefaultTraceCap)
	server := []string{"server", fmt.Sprint(id)}
	peer.AttachTelemetry(n.reg, server...)
	latencyLayout := telemetry.HistogramOpts{Min: 1e-6, Max: 1e3, BucketsPerDecade: 8}
	n.reg.GaugeFunc("terradir_server_load",
		"Server load estimate: queries served on either executor in the window times ServiceCost, over the window, clamped at 1, as the event loop last read it.",
		func() float64 { return math.Float64frombits(n.loadEst.Load()) }, server...)
	n.reg.CounterFunc("terradir_inbox_query_drops_total",
		"Queries dropped because the server's bounded request queue was full.",
		func() float64 { return float64(n.dropped.Load()) }, server...)
	n.queueWaitHist = n.reg.Histogram("terradir_queue_wait_seconds",
		"Time queries spent in the request queue before service.", latencyLayout, server...)
	n.batchDepthHist = n.reg.Histogram("terradir_loop_batch_depth",
		fmt.Sprintf("Envelopes the server's event loop drained per wakeup (at most %d).", ingestBatch),
		telemetry.HistogramOpts{Min: 1, Max: 4096, BucketsPerDecade: 8}, server...)
	n.serviceHist = n.reg.Histogram("terradir_service_seconds",
		"Per-query service time on either executor (measured protocol handling).", latencyLayout, server...)
	n.latencyHist = n.reg.Histogram("terradir_lookup_latency_seconds",
		"End-to-end latency of lookups initiated at this server.", latencyLayout, server...)
	n.hopsHist = n.reg.Histogram("terradir_lookup_hops",
		"Hop count of lookups initiated at this server.",
		telemetry.HistogramOpts{Min: 1, Max: 100, BucketsPerDecade: 16}, server...)
	n.fastResolved = n.reg.Counter("terradir_fastpath_resolved_total",
		"Lookups resolved on the lock-free snapshot fast path.", server...)
	n.fastForwarded = n.reg.Counter("terradir_fastpath_forwarded_total",
		"Queries forwarded on the lock-free snapshot fast path.", server...)
	n.fastFailed = n.reg.Counter("terradir_fastpath_failed_total",
		"Lookups terminated (TTL or no route) on the snapshot fast path.", server...)
	n.fastFallbacks = n.reg.Counter("terradir_fastpath_fallbacks_total",
		"Queries the fast path declined to the event loop (no snapshot or pruning needed).", server...)
	n.sendFn = nodeEnv{n}.Send
	if opts.Membership != nil {
		if opts.Membership.Servers < 1 {
			return nil, fmt.Errorf("overlay: MembershipOptions.Servers = %d", opts.Membership.Servers)
		}
		n.setupOwnership(ownerOf)
		n.warmupStreams = n.reg.Counter("terradir_warmup_streams_total",
			"Warmup streams sent to members that joined or came back from dead.", server...)
	}
	if opts.Persist != nil {
		n.ownerOf = ownerOf
		if opts.Persist.HotCacheEntries > 0 {
			// Residency must be live before replay: the restart stream marks
			// beyond-cap entries cold instead of materializing them.
			n.setupResidency()
		}
		if err := n.setupPersist(ownerOf); err != nil {
			return nil, err
		}
	}
	if opts.Membership != nil {
		n.setupMembership()
	}
	return n, nil
}

// Registry returns the node's metrics registry.
func (n *Node) Registry() *telemetry.Registry { return n.reg }

// Traces returns the node's trace store: the assembled span chains of
// lookups initiated here, including truncated traces of lost queries.
func (n *Node) Traces() *telemetry.TraceStore { return n.traces }

// ID returns the node's server ID.
func (n *Node) ID() core.ServerID { return n.id }

// Peer exposes the underlying protocol state machine. It must only be
// inspected while the node is stopped (the loop owns the peer while
// running); on a running node use Inspect instead.
func (n *Node) Peer() *core.Peer { return n.peer }

// ReplicaCount returns the hosted replicas. Like Peer, call it on a stopped
// (or quiescent) node; on a running node read it via Inspect.
func (n *Node) ReplicaCount() int { return n.peer.ReplicaCount() }

// Inspect runs fn with the event loop parked, synchronously. It is the safe
// way to read (or poke) the single-threaded peer state while the node runs.
// Returns false if the node stopped before fn could run.
func (n *Node) Inspect(fn func(p *core.Peer)) bool { return n.inspect(true, fn) }

// InboxDropped returns the number of queries discarded by the bounded inbox
// — the server's own admission control, distinct from TransportStats
// counters (QueueDrops: outbound per-peer queue evictions; FaultDrops:
// injected loss). The same count is exported by the registry as
// terradir_inbox_query_drops_total.
func (n *Node) InboxDropped() int64 { return n.dropped.Load() }

// SetTransport wires the node's outgoing path. Must be called before Start.
func (n *Node) SetTransport(t Transport) { n.transport = t }

// Start launches the node's event loop, its cold loader and snapshotter when
// persistence asks for them, and the membership service. Everything delivery
// reads is settled by NewNode, so messages that arrive earlier wait in the
// queues; StartTCPNode still serves only after Start has returned.
func (n *Node) Start() {
	if n.transport == nil {
		panic("overlay: Start before SetTransport")
	}
	n.registerTransportMetrics()
	n.peer.PublishSnapshot() // early arrivals see a snapshot, not a fallback
	go n.loop()
	if n.loadCh != nil {
		n.loaderDone = make(chan struct{})
		go n.coldLoader()
	}
	if n.membership != nil {
		n.membership.Start()
	}
	if n.store != nil {
		n.snapDone = make(chan struct{})
		go n.snapshotLoop()
	}
}

// registerTransportMetrics exports the transport's counters through the
// registry as scrape-time functions, so the transport keeps sole ownership
// of its atomics and the registry reads them on demand — one counter
// system, no double accounting.
func (n *Node) registerTransportMetrics() {
	sr, ok := n.transport.(StatsReporter)
	if !ok {
		return
	}
	server := []string{"server", fmt.Sprint(n.id)}
	counter := func(name, help string, read func(TransportStats) uint64) {
		n.reg.CounterFunc(name, help, func() float64 { return float64(read(sr.Stats())) }, server...)
	}
	counter("terradir_transport_queue_drops_total", "Messages evicted from full outbound queues (drop-oldest).",
		func(s TransportStats) uint64 { return s.QueueDrops })
	counter("terradir_transport_write_errors_total", "Frames lost to write failures or expired deadlines.",
		func(s TransportStats) uint64 { return s.WriteErrors })
	n.reg.GaugeFunc("terradir_transport_queue_depth", "Messages currently queued outbound.",
		func() float64 { return float64(sr.Stats().QueueDepth) }, server...)
	// The frames-per-read distribution can't be derived from counter
	// snapshots; transports that batch reads accept a histogram to feed.
	if hs, ok := n.transport.(ReadHistogramSetter); ok {
		hs.SetReadHistogram(n.reg.Histogram("terradir_transport_frames_per_read",
			"Frames decoded per buffered read batch (receive coalescing under the batched sender).",
			telemetry.HistogramOpts{Min: 1, Max: 4096, BucketsPerDecade: 8}, server...))
	}
}

// ReadHistogramSetter is implemented by transports whose batched read path
// can feed a frames-per-read histogram (TCPTransport; FaultTransport
// forwards).
type ReadHistogramSetter interface {
	SetReadHistogram(*telemetry.Histogram)
}

// Stop terminates the membership service (if any), the event loop and the
// node's background goroutines, waiting for all to exit.
func (n *Node) Stop() {
	if n.membership != nil {
		n.membership.Stop()
	}
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	<-n.done
	if n.loaderDone != nil {
		<-n.loaderDone
	}
	if n.snapDone != nil {
		<-n.snapDone
	}
	if n.store != nil {
		// Loop and snapshotter have exited: no appender is left. Close
		// flushes the WAL tail; recovery is replay-only by design (no
		// shutdown snapshot — a crash and a clean stop restart identically).
		if err := n.store.Close(); err != nil {
			log.Printf("overlay: server %d persist close: %v", n.id, err)
		}
	}
}

// handleControl executes one envelope against the peer.
func (n *Node) handleControl(env envelope) {
	if env.fn != nil {
		env.fn()
		return
	}
	switch m := env.msg.(type) {
	case *core.QueryMsg:
		// A query the fast path served: absorb what it carried.
		n.peer.FastAbsorb(m.Piggy, m.Path)
		return
	case *core.DataRequest:
		if n.pendingCold != nil && n.peer.IsCold(m.Node) &&
			n.parkCold(m.Node, coldWaiter{msg: m}) {
			// The requested node's data is on disk; answer after the load.
			return
		}
		n.peer.HandleControl(m)
		return
	case *core.DataReply:
		n.peer.HandleControl(m) // absorb the piggybacked rider
		n.mu.Lock()
		ch, ok := n.pendingData[m.ReqID]
		if ok {
			delete(n.pendingData, m.ReqID)
		}
		n.mu.Unlock()
		if ok {
			ch <- m
		}
		return
	}
	n.peer.HandleControl(env.msg)
}

// fastServe serves q on the published snapshot on the calling goroutine (a
// caller's Lookup, a TCP read loop, or an upstream serve under inline
// LocalTransport delivery), declining when none is published, learnings are
// pending, or the route needs a mutation only the loop may perform; the
// caller then queues q for the loop.
func (n *Node) fastServe(q *core.QueryMsg) bool {
	// Learn gate (see Node.learnSeq) first, then the snapshot it guards.
	var snap *core.RouteSnapshot
	if n.learnPub.Load() == n.learnSeq.Load() {
		snap = n.peer.RoutingSnapshot()
	}
	if snap == nil {
		n.fastFallbacks.Inc()
		return false
	}
	start := time.Since(n.epoch).Seconds()
	q.ServedAt = start
	switch snap.HandleQueryFast(q, start, core.NodeMap{}, n.sendFn, nil) {
	case core.FastResolved:
		n.fastResolved.Inc()
	case core.FastForwarded:
		n.fastForwarded.Inc()
	case core.FastFailed:
		n.fastFailed.Inc()
	default:
		n.fastFallbacks.Inc()
		return false
	}
	n.charge(start)
	if q.Enqueued > 0 && start >= q.Enqueued {
		n.queueWaitHist.Observe(start - q.Enqueued)
	}
	// The served query itself carries its rider and path to the loop for
	// absorption (handleControl), whose trigger check then counts this serve.
	// Non-blocking: under control-queue pressure they are dropped (soft
	// state) rather than stalling the lock-free path.
	n.toLoopOrDrop(envelope{msg: q})
	return true
}

// serveQuery services one query on the loop.
func (n *Node) serveQuery(q *core.QueryMsg) {
	start := time.Since(n.epoch).Seconds()
	q.ServedAt = start
	if q.Enqueued > 0 && start >= q.Enqueued {
		n.queueWaitHist.Observe(start - q.Enqueued)
	}
	if n.pendingCold != nil && n.peer.IsCold(q.Dest) &&
		n.parkCold(q.Dest, coldWaiter{q: q}) {
		// Hosted here, but on disk: the loader materializes the entry and
		// replays the query, which is charged then. Queue wait is already
		// observed above.
		return
	}
	n.peer.HandleQuery(q)
	n.charge(start)
}

// charge accounts one query served from start on either executor: its
// measured service time goes to the histogram, and one ServiceCost to the
// load meter when the loop next reads load (DESIGN.md §10).
func (n *Node) charge(start float64) {
	n.served.Add(1)
	n.serviceHist.Observe(time.Since(n.epoch).Seconds() - start)
}

// enqueue queues q for the loop, dropping it (and reporting false) when the
// bounded request queue is full.
func (n *Node) enqueue(q *core.QueryMsg) bool {
	select {
	case n.queries <- q:
		return true
	default:
		n.dropped.Add(1)
		return false
	}
}

// toLoop enqueues env onto the control queue, blocking until accepted or the
// node stops.
func (n *Node) toLoop(env envelope) {
	select {
	case n.control <- env:
	case <-n.stop:
	}
}

// toLoopOrDrop enqueues soft-state env onto the control queue if there is
// room, and drops it otherwise.
func (n *Node) toLoopOrDrop(env envelope) {
	select {
	case n.control <- env:
	default:
	}
}

// Deliver injects an incoming message (called by transports; safe from any
// goroutine). Queries beyond the inbox bound are dropped.
func (n *Node) Deliver(m core.Message) {
	n.deliver(m, time.Since(n.epoch).Seconds())
}

// DeliverBatch injects a batch of incoming messages in order — transports
// deliver every frame decoded from one buffered read as one batch. The
// enqueue timestamp is read once for the whole batch: every member had
// already arrived when delivery began, so queue-wait histograms keep
// measuring from arrival, and the per-message clock read is amortized away.
func (n *Node) DeliverBatch(batch []core.Message) {
	now := time.Since(n.epoch).Seconds()
	for _, m := range batch {
		n.deliver(m, now)
	}
}

func (n *Node) deliver(m core.Message, now float64) {
	switch msg := m.(type) {
	case *core.QueryMsg:
		msg.Enqueued = now
		if !n.fastServe(msg) {
			n.enqueue(msg)
		}
	case *core.ResultMsg:
		// Queue the learning first (control is FIFO) so an Inspect issued
		// after Lookup returns observes the absorbed result, then wake the
		// waiting caller without a loop round trip. HandleResult only reads
		// the message, so the concurrent completeLookup is safe. The loop
		// publishes after the batch that absorbs it, and from then on the
		// fast path routes on the learned map.
		select {
		case n.control <- envelope{msg: msg}:
		case <-n.stop:
			return
		}
		n.completeLookup(msg)
	case *core.TraceSpanMsg:
		// A hop on one of our lookups' routes reported its span. Fold it in
		// immediately (TraceStore is concurrency-safe; this is what survives
		// a lost query); the piggybacked rider is soft state, absorbed on the
		// loop when there's room.
		n.traces.AddSpan(msg.TraceID, msg.Span)
		n.toLoopOrDrop(envelope{msg: msg})
	case *core.MembershipMsg:
		switch msg.Kind {
		case core.MembershipWarmup:
			// Warmup streams are routing state, not liveness: absorb them on
			// the event loop.
			n.deliverWarmup(msg.Warmup)
		default:
			if n.membership != nil {
				n.membership.Deliver(msg)
			}
		}
	default:
		n.toLoop(envelope{msg: m})
	}
}

// deliverWarmup hands a warmup stream to the loop as a guaranteed learning
// (warmup is how a joiner becomes routable; dropping it would leave the node
// cold).
func (n *Node) deliverWarmup(entries []core.PathEntry) {
	n.learnSeq.Add(1)
	n.toLoop(envelope{fn: func() { n.peer.LearnMaps(entries) }, learn: true})
}

func (n *Node) completeLookup(r *core.ResultMsg) {
	ch := n.takePending(r.QueryID & (1<<attemptShift - 1))
	if ch == nil {
		return // a later answer to a completed lookup, or not ours
	}
	res := LookupResult{
		OK:      r.OK,
		Reason:  r.Reason,
		Node:    r.Dest,
		Name:    n.tree.Name(r.Dest),
		Meta:    r.Meta,
		Hops:    r.Hops,
		Latency: time.Duration((time.Since(n.epoch).Seconds() - r.Started) * float64(time.Second)),
		TraceID: r.TraceID,
	}
	res.Hosts = append(res.Hosts, r.Map.Servers...)
	n.latencyHist.Observe(res.Latency.Seconds())
	n.hopsHist.Observe(float64(res.Hops))
	n.traces.Complete(r.TraceID, r.OK, r.Hops)
	ch <- res
}

// takePending removes lookup seq's pending entry: nil if it was taken first.
func (n *Node) takePending(seq uint64) chan LookupResult {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch := n.pending[seq]
	delete(n.pending, seq)
	return ch
}

// The lookup attempt schedule every initiator follows (DESIGN.md §12): up to
// LookupAttempts queries, LookupInterval apart; none answered is core.FailLost.
const (
	LookupAttempts = 6
	LookupInterval = 500 * time.Millisecond
	LookupTimeout  = LookupAttempts * LookupInterval // 3 s
)

// The attempts of a lookup share its one pending entry: attempt a's query ID
// is the lookup's sequence number with a in the top byte.
const attemptShift = 56

// lookupChPool recycles the one-shot result channels Lookup blocks on. A
// channel goes back only on paths where it provably has no pending sender
// (received-from, or the query never left this function); the cancel paths
// abandon theirs to the GC.
var lookupChPool = sync.Pool{New: func() any { return make(chan LookupResult, 1) }}

// lookupTimerPool recycles the timers that pace lookups, stopped and drained.
var lookupTimerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// Lookup resolves a node through the overlay from this server on the attempt
// schedule: the first answer is final, a typed failure included, none is
// core.FailLost, and the error is ctx's when ctx ends first.
func (n *Node) Lookup(ctx context.Context, dest core.NodeID) (LookupResult, error) {
	if dest < 0 || int(dest) >= n.tree.Len() {
		return LookupResult{}, fmt.Errorf("overlay: no such node %d", dest)
	}
	if err := ctx.Err(); err != nil {
		// A synchronous fast-path answer would race a cancelled ctx below.
		return LookupResult{}, err
	}
	seq := n.nextQID.Add(1)
	ch := lookupChPool.Get().(chan LookupResult)
	n.mu.Lock()
	n.pending[seq] = ch
	n.mu.Unlock()
	started := time.Since(n.epoch).Seconds()
	traceID := n.traceID(seq) // one sampling decision per lookup
	if !n.attempt(seq, 0, dest, started, traceID) {
		n.takePending(seq)
		lookupChPool.Put(ch)
		return LookupResult{}, fmt.Errorf("overlay: server %d queue full", n.id)
	}
	// completeLookup takes the entry before its one send: ch is reusable.
	select {
	case res := <-ch:
		lookupChPool.Put(ch) // answered in the call: no timer armed
		return res, nil
	default:
	}
	timer := lookupTimerPool.Get().(*time.Timer)
	timer.Reset(LookupInterval)
	defer func() {
		if !timer.Stop() {
			<-timer.C
		}
		lookupTimerPool.Put(timer)
	}()
	for a := 1; ; a++ {
		select {
		case res := <-ch:
			lookupChPool.Put(ch)
			return res, nil
		case <-timer.C:
			if a < LookupAttempts {
				if traceID != 0 {
					traceID = max(splitmix64(traceID), 1) // each attempt is its own trace
				}
				n.peer.CountLookupReattempt()
				n.attempt(seq, a, dest, started, traceID) // a full queue loses this attempt
			} else if n.takePending(seq) != nil { // else an answer is on its way
				ch <- LookupResult{Reason: core.FailLost, Node: dest, Name: n.tree.Name(dest), TraceID: traceID}
			}
			timer.Reset(LookupInterval) // its channel was just drained
		case <-ctx.Done():
			n.takePending(seq)
			return LookupResult{}, ctx.Err()
		case <-n.stop:
			return LookupResult{}, fmt.Errorf("overlay: node stopped")
		}
	}
}

// attempt sends attempt a of lookup seq, serving it on the fast path when it
// can, and reports false when the request queue was full.
func (n *Node) attempt(seq uint64, a int, dest core.NodeID, started float64, traceID uint64) bool {
	q := &core.QueryMsg{
		QueryID:  seq | uint64(a)<<attemptShift,
		Dest:     dest,
		Source:   n.id,
		OnBehalf: namespace.Invalid,
		Started:  started,
		Enqueued: time.Since(n.epoch).Seconds(),
		TraceID:  traceID,
		Piggy:    core.Piggyback{From: core.NoServer}, // From 0 would gossip an idle server 0
		// A typical route's path entries, reserved up front: routes are
		// tree-depth-bounded, so each hop's append rarely reallocates.
		Path: make([]core.PathEntry, 0, 8),
	}
	return n.fastServe(q) || n.enqueue(q)
}

// traceID decides whether lookup qid is traced and derives its trace ID
// (0 = untraced). Sampling is deterministic in (seed, qid), so identical
// runs trace identical lookups; the ID mixes in the server so concurrent
// initiators never collide.
func (n *Node) traceID(qid uint64) uint64 {
	s := n.opts.TraceSample
	if s <= 0 {
		return 0
	}
	h := splitmix64(n.opts.Seed ^ (qid * 0x9e3779b97f4a7c15))
	if s < 1 && float64(h>>11)/(1<<53) >= s {
		return 0
	}
	id := splitmix64(h ^ (uint64(uint32(n.id)) << 32))
	if id == 0 {
		id = 1
	}
	return id
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LookupName resolves a fully qualified name through the overlay.
func (n *Node) LookupName(ctx context.Context, name string) (LookupResult, error) {
	id := n.tree.Lookup(name)
	if id == namespace.Invalid {
		return LookupResult{}, fmt.Errorf("overlay: no such name %q", name)
	}
	return n.Lookup(ctx, id)
}

// Assign deterministically maps every namespace node to one of n servers
// (uniform, seeded): all processes of a deployment compute the same
// assignment from the same (tree, servers, seed) triple.
func Assign(tree *namespace.Tree, servers int, seed uint64) []core.ServerID {
	src := rng.New(seed ^ 0x7e44ad15)
	owner := make([]core.ServerID, tree.Len())
	for i := range owner {
		owner[i] = core.ServerID(src.Intn(servers))
	}
	return owner
}
