package overlay

// This file is the node's single-writer event loop (DESIGN.md §11): one
// goroutine owns the node's core.Peer, as the simulator's event loop owns
// each simulated server. Everything that touches the peer — queries, control
// messages, timer callbacks, maintenance ticks — runs on it, or on a
// goroutine that holds the loop parked (inspect).

import (
	"math"
	"time"

	"terradir/internal/core"
)

// nodeEnv adapts a node to core.Env. All methods run in the node's own
// execution context (its loop, or a goroutine holding the loop parked), per
// the Env contract.
type nodeEnv struct{ n *Node }

func (e nodeEnv) Now() float64 { return time.Since(e.n.epoch).Seconds() }

// Load is the node's live meter reading. It is also stored in loadEst for
// the terradir_server_load gauge, which reads it from other goroutines; the
// meter itself belongs to the loop.
func (e nodeEnv) Load() float64 {
	n := e.n
	l := n.meter.Load(time.Since(n.epoch).Seconds())
	n.loadEst.Store(math.Float64bits(l))
	return l
}

func (e nodeEnv) Send(to core.ServerID, m core.Message) {
	n := e.n
	if to == n.id {
		// Local shortcut: loop back through our own inbox without the
		// transport (same as the simulator's zero-delay self-delivery).
		n.Deliver(m)
		return
	}
	_ = n.transport.Send(n.id, to, m) // soft state: losses tolerated
}

func (e nodeEnv) After(d float64, fn func()) {
	n := e.n
	time.AfterFunc(time.Duration(d*float64(time.Second)), func() {
		select {
		case n.control <- envelope{fn: fn}:
		case <-n.stop:
		}
	})
}

// inspect runs fn on the calling goroutine with the event loop parked, so fn
// may touch the peer directly and its effects apply atomically from the
// overlay's point of view (membership purge and handoff, snapshots). With
// learn set, the fast path stays closed until the loop republishes after fn,
// so fn's effects reach the snapshot before lock-free serving resumes.
// Returns false if the node stopped first.
func (n *Node) inspect(learn bool, fn func(p *core.Peer)) bool {
	if learn {
		n.learnSeq.Add(1)
	}
	arrive := make(chan struct{})
	release := make(chan struct{})
	defer close(release) // frees the parked loop on every return path
	select {
	case n.control <- envelope{fn: func() { close(arrive); <-release }, learn: learn}:
	case <-n.stop:
		return false
	}
	select {
	case <-arrive:
	case <-n.stop:
		return false
	}
	fn(n.peer)
	return true
}

// ingestBatch caps how many envelopes the loop drains per wakeup. A constant,
// not a knob: against strict one-per-wakeup servicing the 64-deep batch
// measured within noise on one loop (BENCH_lookup.json ingest_batch), and it
// pays the per-wakeup costs once per batch, so there is one good value.
const ingestBatch = 64

// loop is the node's single-writer event loop.
//
// Each wakeup drains a BATCH of up to ingestBatch already-queued envelopes
// (or queries) instead of exactly one: the per-wakeup costs — advert-expiry
// sweep and digest bookkeeping (peer.BatchTick), the snapshot publish, and
// the WAL group-commit flush — are then paid once per batch rather than once
// per message. Per-envelope semantics are untouched: every learn envelope
// still publishes before advancing learnPub, queue-wait histograms still
// measure from enqueue time, and control keeps strict priority over queries
// (a query batch stops early the moment control traffic appears).
//
// The snapshot is published after every batch and every maintenance tick,
// with no rate limit: a publish costs what the batch changed
// (core.Peer.PublishSnapshot), and nothing when it changed nothing.
func (n *Node) loop() {
	defer close(n.done)
	maintain := time.NewTicker(time.Duration(n.opts.Config.MaintainInterval * float64(time.Second)))
	defer maintain.Stop()
	var learnExec uint64
	publish := func() {
		if n.fastEnabled {
			n.peer.PublishSnapshot()
		}
	}
	handle := func(env envelope) {
		n.handleControl(env)
		if env.learn {
			// Publish before advancing learnPub: a reader that observes
			// learnPub == learnSeq must find the learning in the snapshot.
			learnExec++
			publish()
			n.learnPub.Store(learnExec)
		}
	}
	tick := func() {
		n.peer.Maintain()
		n.loadEst.Store(math.Float64bits(n.meter.Load(time.Since(n.epoch).Seconds())))
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
			case env := <-n.control:
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
		n.serveQuery(q)
		depth := 1
		for depth < ingestBatch && len(n.control) == 0 {
			select {
			case q := <-n.queries:
				n.serveQuery(q)
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
		case env := <-n.control:
			n.peer.BatchTick()
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
		case env := <-n.control:
			n.peer.BatchTick()
			finishBatch(drainControl(env))
		case <-maintain.C:
			tick()
		case q := <-n.queries:
			n.peer.BatchTick()
			finishBatch(drainQueries(q))
		}
	}
}

// fastAbsorb hands a fast-served query's rider and path to the loop for
// absorption into the peer's soft state. Non-blocking: under control-queue
// pressure the rider is dropped (it is advisory) rather than stalling the
// lock-free path.
func (n *Node) fastAbsorb(pb core.Piggyback, path []core.PathEntry) {
	select {
	case n.control <- envelope{fn: func() { n.peer.FastAbsorb(pb, path) }}:
	default:
		n.fastAbsorbDrops.Inc()
	}
}
