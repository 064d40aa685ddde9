package overlay

// This file implements the sharded event-loop model (DESIGN.md §11): a
// node's hosted nodes and soft state (cache, digests, load accounting,
// adverts, replica bookkeeping) are partitioned across N shard peers keyed
// by namespace subtree hash. Each shard runs its own single-writer loop and
// publishes its own RouteSnapshot, so on a multi-core host the write side of
// the protocol scales with cores instead of serializing through one
// goroutine. Cross-shard concerns — membership purge/handoff, the
// server-wide digest, aggregate introspection — go through a thin barrier
// coordinator (runOnShards) that parks every loop before touching the peers,
// so those operations stay atomic from the overlay's point of view.

import (
	"math"
	"sync/atomic"
	"time"

	"terradir/internal/bloom"
	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/sim"
	"terradir/internal/telemetry"
)

// sessionTagShift is the bit position of the shard tag OR-ed into replication
// session ids (core.Peer.SetSessionBase), letting Deliver route probe and
// replicate replies back to the shard that opened the session.
const sessionTagShift = 56

// shard is one single-writer partition of a node: its own core.Peer (same
// ServerID), load meter, query/control queues and fast-path learn gating —
// exactly the per-node loop state of the unsharded design, multiplied.
type shard struct {
	n     *Node
	idx   int
	peer  *core.Peer
	meter *sim.LoadMeter

	queries chan *core.QueryMsg
	control chan envelope
	done    chan struct{}

	// Fast-path gating, per shard: learnSeq counts learn-marked envelopes
	// enqueued to this shard, learnPub those whose effects are published.
	learnSeq atomic.Uint64
	learnPub atomic.Uint64

	// loadEst is the Float64bits of this shard's last meter reading, stored
	// so other shards can fold it into the server-wide load average without
	// touching the meter (which is single-writer, owned by this shard).
	loadEst atomic.Uint64

	// absorbFn is the bound fast-path rider absorber (no per-query closure).
	absorbFn func(core.Piggyback, []core.PathEntry)

	// waitHist is the per-shard queue-wait histogram (nil at one shard, where
	// the node-level histogram already tells the whole story).
	waitHist *telemetry.Histogram

	// Larger-than-RAM hosting (coldload.go). pendingCold parks queries and
	// data requests for hosted-but-on-disk nodes while the loader goroutine
	// reads the node index; both are loop-owned. loadCh wakes the loader;
	// coldCapEntries/coldCapBytes are this shard's residency bounds.
	pendingCold    map[core.NodeID]*coldPending
	loadCh         chan core.NodeID
	loaderDone     chan struct{}
	coldCapEntries int
	coldCapBytes   int64
}

// shardEnv adapts a shard to core.Env. All methods run in the shard's own
// execution context (its loop, or a goroutine holding the runOnShards
// barrier), per the Env contract.
type shardEnv struct{ s *shard }

func (e shardEnv) Now() float64 { return time.Since(e.s.n.epoch).Seconds() }

// Load is the load figure the protocol acts on: this shard's OWN live meter
// reading. Replication triggers (§3.4) must fire when the shard serving a hot
// subtree saturates — averaging in idle sibling shards would mask a hot shard
// below Thigh and suppress offloading exactly when it matters. Advertising
// the hot shard's load to peers is likewise directionally right: remote
// servers steer replica placement away from it. The server-wide average
// remains available via serverLoad for aggregate metrics.
func (e shardEnv) Load() float64 {
	now := time.Since(e.s.n.epoch).Seconds()
	own := e.s.meter.Load(now)
	// Publish for siblings' server-wide aggregation (Snapshot, serverLoad).
	e.s.loadEst.Store(math.Float64bits(own))
	return own
}

func (e shardEnv) Send(to core.ServerID, m core.Message) {
	n := e.s.n
	if to == n.id {
		// Local shortcut: loop back through our own inbox without the
		// transport (same as the simulator's zero-delay self-delivery).
		n.Deliver(m)
		return
	}
	_ = n.transport.Send(n.id, to, m) // soft state: losses tolerated
}

func (e shardEnv) After(d float64, fn func()) {
	s := e.s
	time.AfterFunc(time.Duration(d*float64(time.Second)), func() {
		select {
		case s.control <- envelope{fn: fn}:
		case <-s.n.stop:
		}
	})
}

// serverLoad is the server-wide aggregate load: the mean of every shard's
// last published meter reading. It reads only the loadEst atomics, so it is
// safe from any goroutine (metrics, Snapshot fallback) — the meters
// themselves are single-writer and stay with their shard loops. The average
// keeps the figure "locally defined and linearly comparable" across servers
// (§3.1): a 4-shard server must not report 4× the load of an equally busy
// unsharded one. The protocol itself acts on shardEnv.Load (shard-local).
func (n *Node) serverLoad() float64 {
	total := 0.0
	for _, s := range n.shards {
		total += math.Float64frombits(s.loadEst.Load())
	}
	return total / float64(len(n.shards))
}

// fnv1a is the 64-bit FNV-1a hash of s.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// buildShardTable maps every namespace node to a shard. Keying is by subtree
// ancestor: the shallowest level with at least 4×shards nodes becomes the
// key depth, and every node hashes by the NAME of its ancestor at that depth
// (its own name when shallower). Whole subtrees therefore land on one shard
// — parent/child forwarding chains and neighbor context stay shard-local —
// while there are enough distinct subtrees to spread load. The table depends
// only on the tree shape, names and shard count, so every restart and every
// server computes the same mapping. One shard needs no table: nil, which
// shardOf reads as shard 0 for every node.
func buildShardTable(tree *namespace.Tree, shards int) []int32 {
	if shards <= 1 {
		return nil
	}
	tbl := make([]int32, tree.Len())
	keyDepth := shardKeyDepth(tree, shards)
	for id := range tbl {
		nd := core.NodeID(id)
		d := tree.Depth(nd)
		if d > keyDepth {
			d = keyDepth
		}
		anc := tree.AncestorAtDepth(nd, d)
		tbl[id] = int32(fnv1a(tree.Name(anc)) % uint64(shards))
	}
	return tbl
}

// shardKeyDepth picks the namespace level buildShardTable keys on: the
// shallowest level with at least 4×shards nodes (enough distinct subtrees to
// spread load), falling back to the deepest level of a small tree. Nodes
// ABOVE this depth are the tree's shared top: every shard may cache them
// (the learn filter exempts them), because any lookup's ancestor chain
// crosses them and a shard that could never learn their maps would route
// its whole partition through cold tree-walks.
func shardKeyDepth(tree *namespace.Tree, shards int) int {
	pops := tree.LevelPopulations()
	keyDepth := len(pops) - 1
	for d, n := range pops {
		if n >= 4*shards {
			keyDepth = d
			break
		}
	}
	return keyDepth
}

// shardOf returns the shard index owning node nd's partition.
func (n *Node) shardOf(nd core.NodeID) int {
	if nd < 0 || int(nd) >= len(n.shardTbl) {
		return 0
	}
	return int(n.shardTbl[nd])
}

// shardFor returns the shard owning node nd's partition.
func (n *Node) shardFor(nd core.NodeID) *shard { return n.shards[n.shardOf(nd)] }

// sessionShard maps a replication session id back to the shard that opened
// it (see sessionTagShift).
func (n *Node) sessionShard(id uint64) *shard {
	return n.shards[int(id>>sessionTagShift)%len(n.shards)]
}

// Shards returns the node's shard count.
func (n *Node) Shards() int { return len(n.shards) }

// ShardOf exposes the deterministic node→shard mapping (introspection and
// tests).
func (n *Node) ShardOf(nd core.NodeID) int { return n.shardOf(nd) }

// ShardPeer returns shard i's peer. Like Peer, it must only be touched while
// the node is stopped; on a running node use Inspect or InspectShards.
func (n *Node) ShardPeer(i int) *core.Peer { return n.shards[i].peer }

// ReplicaCount sums hosted replicas across all shard peers. Like Peer, call
// on a stopped (or quiescent) node; on a running node aggregate via Inspect.
func (n *Node) ReplicaCount() int {
	total := 0
	for _, s := range n.shards {
		total += s.peer.ReplicaCount()
	}
	return total
}

// runOnShards executes fn once per shard with every shard loop parked at a
// barrier — the node is globally quiescent, so fn may touch each peer from
// the calling goroutine and cross-shard operations (PurgeServer, ownership
// handoff, digest install) apply atomically from the overlay's point of
// view. With learn set, every shard's fast path stays closed until its
// loop republishes after the barrier, so fn's effects reach the snapshots
// before lock-free serving resumes. Returns false if the node stopped first.
func (n *Node) runOnShards(learn bool, fn func(s *shard)) bool {
	// One barrier at a time: two interleaved barriers could each park a
	// subset of the loops and wait forever for the other's shards.
	n.barrier.Lock()
	defer n.barrier.Unlock()
	if learn {
		for _, s := range n.shards {
			s.learnSeq.Add(1)
		}
	}
	arrive := make(chan struct{}, len(n.shards))
	release := make(chan struct{})
	defer close(release) // frees any parked loop on every return path
	enqueued := 0
	for _, s := range n.shards {
		env := envelope{fn: func() { arrive <- struct{}{}; <-release }, learn: learn}
		select {
		case s.control <- env:
			enqueued++
		case <-n.stop:
			return false
		}
	}
	for parked := 0; parked < enqueued; parked++ {
		select {
		case <-arrive:
		case <-n.stop:
			return false
		}
	}
	for _, s := range n.shards {
		fn(s)
	}
	return true
}

// ingestBatch caps how many envelopes a shard loop drains per wakeup. A
// constant, not a knob: against strict one-per-wakeup servicing the 64-deep
// batch was within noise at shards=1 and cut shards=4 oversubscription p99
// 98 ms → 7.4 ms (BENCH_lookup.json ingest_batch), so there is one good value.
const ingestBatch = 64

// shard.loop is the shard's single-writer event loop: the same
// control-priority, snapshot-publication and learn-gating discipline as the
// classic per-node loop, applied to this shard's peer alone.
//
// Each wakeup drains a BATCH of up to ingestBatch already-queued
// envelopes (or queries) instead of exactly one: the per-wakeup costs —
// advert-expiry sweep and digest bookkeeping (peer.BatchTick), the snapshot
// publish, and the WAL group-commit flush — are then paid once per batch
// rather than once per message. Per-envelope semantics are untouched: every
// learn envelope still publishes before advancing learnPub, queue-wait
// histograms still measure from enqueue time, and control keeps strict
// priority over queries (a query batch stops early the moment control
// traffic appears).
//
// The snapshot is published after every batch and every maintenance tick,
// with no rate limit: a publish costs what the batch changed
// (core.Peer.PublishSnapshot), and nothing when it changed nothing.
func (s *shard) loop() {
	n := s.n
	defer close(s.done)
	maintain := time.NewTicker(time.Duration(n.opts.Config.MaintainInterval * float64(time.Second)))
	defer maintain.Stop()
	var learnExec uint64
	publish := func() {
		if n.fastEnabled {
			s.peer.PublishSnapshot()
		}
	}
	handle := func(env envelope) {
		n.handleControl(s, env)
		if env.learn {
			// Publish before advancing learnPub: a reader that observes
			// learnPub == learnSeq must find the learning in the snapshot.
			learnExec++
			publish()
			s.learnPub.Store(learnExec)
		}
	}
	tick := func() {
		s.peer.Maintain()
		s.loadEst.Store(math.Float64bits(s.meter.Load(time.Since(n.epoch).Seconds())))
		n.flushJournal() // age-based evictions journal deletes
		publish()
	}
	// drainControl services env plus up to ingestBatch-1 more already-queued
	// control envelopes, returning the batch depth.
	drainControl := func(env envelope) int {
		handle(env)
		depth := 1
		for depth < ingestBatch {
			select {
			case env := <-s.control:
				handle(env)
				depth++
			default:
				return depth
			}
		}
		return depth
	}
	// drainQueries services q plus up to ingestBatch-1 more already-queued
	// queries, yielding early if control traffic arrives (control keeps
	// priority).
	drainQueries := func(q *core.QueryMsg) int {
		n.serveQuery(s, q)
		depth := 1
		for depth < ingestBatch && len(s.control) == 0 {
			select {
			case q := <-s.queries:
				n.serveQuery(s, q)
				depth++
			default:
				return depth
			}
		}
		return depth
	}
	// finishBatch settles the per-batch work: depth telemetry, one WAL
	// group-commit flush covering every mutation the batch journaled, and
	// one snapshot publish.
	finishBatch := func(depth int) {
		n.batchDepthHist.Observe(float64(depth))
		n.flushJournal()
		publish()
	}
	for {
		// Control traffic and timers take priority over queued queries
		// (they bypass the service queue, as in the simulator).
		select {
		case <-n.stop:
			return
		case env := <-s.control:
			s.peer.BatchTick()
			finishBatch(drainControl(env))
			continue
		case <-maintain.C:
			tick()
			continue
		default:
		}
		select {
		case <-n.stop:
			return
		case env := <-s.control:
			s.peer.BatchTick()
			finishBatch(drainControl(env))
		case <-maintain.C:
			tick()
		case q := <-s.queries:
			s.peer.BatchTick()
			finishBatch(drainQueries(q))
		}
	}
}

// fastAbsorb hands a fast-served query's rider and path to this shard's loop
// for absorption into its peer's soft state. Non-blocking: under
// control-queue pressure the rider is dropped (it is advisory) rather than
// stalling the lock-free path. Foreign path entries were already fanned to
// their home shards by Deliver; this shard's learn filter skips them.
func (s *shard) fastAbsorb(pb core.Piggyback, path []core.PathEntry) {
	select {
	case s.control <- envelope{fn: func() { s.peer.FastAbsorb(pb, path) }}:
	default:
		s.n.fastAbsorbDrops.Inc()
	}
}

// fanForeignPath routes the foreign-partition entries of an incoming path to
// their home shards as advisory (non-blocking) learnings: the shard that
// processes the message never creates soft state for another shard's
// partition (its learn filter rejects it), so without fanning those map
// entries would be lost. PathEntry values are copied by append; the NodeMaps
// inside follow the read-only convention for received maps, so sharing them
// across shards is safe.
func (n *Node) fanForeignPath(home int, path []core.PathEntry) {
	if len(n.shards) == 1 || len(path) == 0 {
		return
	}
	var per [][]core.PathEntry
	for i := range path {
		si := n.shardOf(path[i].Node)
		if si == home {
			continue
		}
		if per == nil {
			per = make([][]core.PathEntry, len(n.shards))
		}
		per[si] = append(per[si], path[i])
	}
	for si, sub := range per {
		if len(sub) == 0 {
			continue
		}
		s := n.shards[si]
		sub := sub
		select {
		case s.control <- envelope{fn: func() { s.peer.LearnMaps(sub) }}:
		default:
			n.fastAbsorbDrops.Inc()
		}
	}
}

// deliverWarmup partitions a warmup stream by home shard and hands each
// shard its slice as a guaranteed learning (warmup is how a joiner becomes
// routable; dropping it would leave the node cold).
func (n *Node) deliverWarmup(entries []core.PathEntry) {
	if len(n.shards) == 1 {
		s := n.shards[0]
		s.learnSeq.Add(1)
		select {
		case s.control <- envelope{fn: func() { s.peer.LearnMaps(entries) }, learn: true}:
		case <-n.stop:
		}
		return
	}
	per := make([][]core.PathEntry, len(n.shards))
	for i := range entries {
		si := n.shardOf(entries[i].Node)
		per[si] = append(per[si], entries[i])
	}
	for si, sub := range per {
		if len(sub) == 0 {
			continue
		}
		s := n.shards[si]
		sub := sub
		s.learnSeq.Add(1)
		select {
		case s.control <- envelope{fn: func() { s.peer.LearnMaps(sub) }, learn: true}:
		case <-n.stop:
			return
		}
	}
}

// deliverReplicate dispatches an incoming replication transfer. The bulk of
// the payload normally shares one subtree (replication ships ranked hosted
// nodes, and ranking correlates with locality), so the first payload node's
// home shard handles the request — and with it the load re-check, hysteresis
// and the acknowledging reply. Payload nodes belonging to other shards are
// split out and installed directly on their home shards; they are absent
// from the reply's Accepted list, so the source treats them as refused and
// skips their adverts — a small soft-state loss, repaired by normal advert
// and path dissemination.
func (n *Node) deliverReplicate(msg *core.ReplicateRequest) {
	if len(n.shards) == 1 || len(msg.Nodes) == 0 {
		s := n.shards[n.shardOf(firstReplicaNode(msg))]
		select {
		case s.control <- envelope{msg: msg}:
		case <-n.stop:
		}
		return
	}
	home := n.shardOf(msg.Nodes[0].Node)
	var homeNodes []core.ReplicaPayload
	var foreign [][]core.ReplicaPayload
	for i := range msg.Nodes {
		si := n.shardOf(msg.Nodes[i].Node)
		if si == home {
			homeNodes = append(homeNodes, msg.Nodes[i])
			continue
		}
		if foreign == nil {
			foreign = make([][]core.ReplicaPayload, len(n.shards))
		}
		foreign[si] = append(foreign[si], msg.Nodes[i])
	}
	for si, sub := range foreign {
		if len(sub) == 0 {
			continue
		}
		s := n.shards[si]
		from := msg.From
		sub := sub
		select {
		case s.control <- envelope{fn: func() {
			for i := range sub {
				s.peer.InstallReplica(&sub[i], from)
			}
		}}:
		case <-n.stop:
			return
		}
	}
	homeMsg := *msg
	homeMsg.Nodes = homeNodes
	select {
	case n.shards[home].control <- envelope{msg: &homeMsg}:
	case <-n.stop:
	}
}

func firstReplicaNode(msg *core.ReplicateRequest) core.NodeID {
	if len(msg.Nodes) > 0 {
		return msg.Nodes[0].Node
	}
	return 0
}

// buildSharedDigest rebuilds the server-wide combined digest from every
// shard's hosted set. All shards advertise one ServerID, so advertising
// per-shard partial digests would read as Bloom false negatives at remote
// peers: their keepFor filtering (§3.7) would prune servers that DO host the
// node. The combined filter restores the unsharded digest semantics.
func (n *Node) buildSharedDigest(ids [][]core.NodeID) *bloom.Filter {
	total := 0
	for _, l := range ids {
		total += len(l)
	}
	if total < 1 {
		total = 1
	}
	f := bloom.New(uint64(n.opts.Config.DigestBitsPerNode*total), uint32(n.opts.Config.DigestHashes))
	for _, l := range ids {
		for _, nd := range l {
			f.Add(core.NodeKey(nd))
		}
	}
	f.SetVersion(n.digestGen.Add(1))
	return f
}

// kickCoordinator asks the digest coordinator for an off-schedule rebuild
// (hosting sets just changed: membership purge or handoff). Non-blocking; a
// pending kick already covers this request.
func (n *Node) kickCoordinator() {
	if n.coordKick == nil {
		return
	}
	select {
	case n.coordKick <- struct{}{}:
	default:
	}
}

// coordinator periodically (and on kick) recombines the shards' hosted sets
// into the shared server-wide digest and installs it on every shard. Runs
// only when sharding and digests are both on.
func (n *Node) coordinator() {
	defer close(n.coordDone)
	tick := time.NewTicker(time.Duration(n.opts.Config.MaintainInterval * float64(time.Second)))
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
		case <-n.coordKick:
		}
		ids := make([][]core.NodeID, len(n.shards))
		if !n.runOnShards(false, func(s *shard) { ids[s.idx] = s.peer.HostedIDs() }) {
			return
		}
		f := n.buildSharedDigest(ids)
		if !n.runOnShards(false, func(s *shard) { s.peer.SetSharedDigest(f) }) {
			return
		}
	}
}
