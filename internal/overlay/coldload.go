package overlay

// This file is the async cold-miss machinery behind larger-than-RAM hosting
// (DESIGN.md §14). The node's hosted map is a bounded hot cache
// (core.Peer.SetResidency); the rest of its partition lives in the
// persistence tier's on-disk node index. When the event loop meets a query or
// data request for a hosted-but-cold node, it parks the message in a pending
// table keyed by node and signals the loader goroutine; the loader reads the
// index off the loop and hands the decoded record back as a control
// envelope, which installs it and replays the parked messages. The event loop
// therefore never blocks on disk I/O, so queue waits stay bounded with a
// namespace far larger than RAM.

import (
	"fmt"
	"log"
	"time"

	"terradir/internal/core"
	"terradir/internal/telemetry"
)

// coldWaiter is one parked message: a query (replayed through serveQuery) or
// a control message such as a DataRequest (replayed through handleControl).
type coldWaiter struct {
	q   *core.QueryMsg
	msg core.Message
}

// coldPending tracks one in-flight cold load. Loop-owned.
type coldPending struct {
	waiters []coldWaiter
	start   float64 // park time, for the load-latency histogram
}

// setupResidency bounds the resident hosted map and registers the hot-cache
// telemetry. Called from NewNode before setupPersist (restart streaming needs
// the cold set in place), with the loop not yet running.
func (n *Node) setupResidency() {
	po := n.opts.Persist
	server := []string{"server", fmt.Sprint(n.id)}
	n.idxHits = n.reg.Counter("terradir_persist_index_hits_total",
		"Cold-miss loads that found and installed the entry from the on-disk node index.", server...)
	n.idxMisses = n.reg.Counter("terradir_persist_index_misses_total",
		"Queries and data requests that parked on a hosted-but-cold node (index reads demanded).", server...)
	n.idxEvictions = n.reg.Counter("terradir_persist_index_evictions_total",
		"Hosted entries demoted from the resident hot cache to the on-disk index.", server...)
	n.idxLoadHist = n.reg.Histogram("terradir_persist_index_load_seconds",
		"Cold-miss latency: park to install (index read off the event loop).",
		telemetry.HistogramOpts{Min: 1e-6, Max: 1e3, BucketsPerDecade: 8}, server...)
	n.pendingCold = make(map[core.NodeID]*coldPending)
	n.loadCh = make(chan core.NodeID, 256)
	n.peer.SetResidency(po.HotCacheEntries, po.HotCacheBytes, func(core.NodeID) { n.idxEvictions.Inc() })
}

// residencyFull reports whether the hot cache is at (or past) its configured
// bounds — the restart streaming cutoff for keeping index entries resident.
func (n *Node) residencyFull() bool {
	po := n.opts.Persist
	if po.HotCacheEntries > 0 && n.peer.ResidentCount() >= po.HotCacheEntries {
		return true
	}
	return po.HotCacheBytes > 0 && n.peer.ResidentBytes() >= po.HotCacheBytes
}

// parkCold parks w until dest's index record is installed, scheduling a load
// if none is in flight. Loop context. It reports false — the caller must
// serve the message as-is — when the loader queue is saturated; the query
// then routes on whatever soft state is resident (another replica), which is
// a graceful-degradation path, not a stall.
func (n *Node) parkCold(dest core.NodeID, w coldWaiter) bool {
	p, ok := n.pendingCold[dest]
	if !ok {
		select {
		case n.loadCh <- dest:
		default:
			return false
		}
		p = &coldPending{start: time.Since(n.epoch).Seconds()}
		n.pendingCold[dest] = p
	}
	p.waiters = append(p.waiters, w)
	n.idxMisses.Inc()
	return true
}

// coldLoader is the node's disk-read goroutine: it resolves each demanded
// node against the current index generation and re-injects the result into
// the loop as a control envelope, keeping index reads strictly off the event
// loop (the channel dedupes via pendingCold).
func (n *Node) coldLoader() {
	defer close(n.loaderDone)
	for {
		var dest core.NodeID
		select {
		case <-n.stop:
			return
		case dest = <-n.loadCh:
		}
		var rec *core.HostedMutation
		if ix := n.store.AcquireIndex(); ix != nil {
			r, err := ix.Get(dest)
			ix.Release()
			if err != nil {
				log.Printf("overlay: server %d cold load of node %d: %v", n.id, dest, err)
			} else {
				rec = r
			}
		}
		select {
		case n.control <- envelope{fn: func() { n.finishColdLoad(dest, rec) }}:
		case <-n.stop:
			return
		}
	}
}

// finishColdLoad installs a loaded index record (loop context) and replays
// the parked messages. A nil record — the entry vanished from the index, or
// the read failed — clears the cold marker so waiters fail through the
// normal routing paths instead of re-parking forever.
func (n *Node) finishColdLoad(dest core.NodeID, rec *core.HostedMutation) {
	p := n.pendingCold[dest]
	delete(n.pendingCold, dest)
	installed := false
	if rec != nil {
		// The stored self-map predates current liveness knowledge: drop
		// servers membership currently considers dead, exactly as PurgeServer
		// would have done were the entry resident.
		if n.ownership != nil {
			rec.Map.Prune(n.ownership.Alive)
		}
		installed = n.peer.InstallFromIndex(rec, n.effectiveOwner)
	}
	if installed {
		n.idxHits.Inc()
	} else {
		n.peer.ClearCold(dest)
	}
	if p == nil {
		return
	}
	now := time.Since(n.epoch).Seconds()
	n.idxLoadHist.Observe(now - p.start)
	for _, w := range p.waiters {
		if w.q != nil {
			// Queue wait was already observed when the query first reached
			// the loop; zero it so the replay doesn't double-count.
			w.q.Enqueued = 0
			n.serveQuery(w.q)
		} else if w.msg != nil {
			n.handleControl(envelope{msg: w.msg})
		}
	}
}

// effectiveOwner resolves a node's owner against the live ownership table
// when membership runs, the static assignment otherwise — the owner context
// cold installs seed neighbor maps from.
func (n *Node) effectiveOwner(nd core.NodeID) core.ServerID {
	if n.ownership != nil {
		return n.ownership.Owner(nd)
	}
	return n.ownerOf(nd)
}
