package overlay

import (
	"context"
	"fmt"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
)

// This file implements the client-side operations built on lookups: the
// paper's two-step data retrieval (§2.1: "a node lookup, followed by the
// actual data retrieval") and hierarchical search decomposition ("complex
// search queries are decomposed hierarchically into individual lookup
// queries, ... the results are aggregated").

// Get resolves a node and then retrieves its application data from one of
// the hosting servers in the returned map. Routing replicas carry no data
// (Table 1), so hosts are tried in turn until the owner answers.
func (n *Node) Get(ctx context.Context, dest core.NodeID) (LookupResult, []byte, error) {
	res, err := n.Lookup(ctx, dest)
	if err != nil {
		return LookupResult{}, nil, err
	}
	if !res.OK {
		return res, nil, fmt.Errorf("overlay: lookup failed: %s", res.Reason)
	}
	var lastErr error
	for _, host := range res.Hosts {
		data, err := n.fetchData(ctx, host, dest)
		if err == nil {
			return res, data, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("overlay: node %d has no hosts in its map", dest)
	}
	return res, nil, fmt.Errorf("overlay: data retrieval for %s: %w", res.Name, lastErr)
}

// errNoData distinguishes "host answered but has no data" from transport
// failures.
var errNoData = fmt.Errorf("host holds no data (routing replica)")

func (n *Node) fetchData(ctx context.Context, host core.ServerID, dest core.NodeID) ([]byte, error) {
	reqID := n.nextQID.Add(1)
	ch := make(chan *core.DataReply, 1)
	n.mu.Lock()
	n.pendingData[reqID] = ch
	n.mu.Unlock()
	cleanup := func() {
		n.mu.Lock()
		delete(n.pendingData, reqID)
		n.mu.Unlock()
	}
	req := &core.DataRequest{ReqID: reqID, Node: dest, From: n.id}
	if host == n.id {
		// Our own copy is read by the event loop, like any other
		// host's: the loop is the only reader of hosted state, and a cold node
		// parks there and loads instead of answering "no data".
		n.Deliver(req)
	} else if err := n.transport.Send(n.id, host, req); err != nil {
		cleanup()
		return nil, err
	}
	// The effective timeout is the caller's ctx deadline when one exists and
	// is sooner; dataTimeout otherwise backstops deadline-free
	// contexts. A stopped timer (unlike time.After) allocates nothing past
	// this call's lifetime.
	timeout := dataTimeout
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain < timeout {
			timeout = remain
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case rep := <-ch:
		if !rep.OK {
			return nil, errNoData
		}
		return rep.Data, nil
	case <-ctx.Done():
		cleanup()
		return nil, ctx.Err()
	case <-timer.C:
		cleanup()
		return nil, fmt.Errorf("data request to server %d timed out after %v", host, timeout)
	case <-n.stop:
		cleanup()
		return nil, fmt.Errorf("node stopped")
	}
}

// SearchResult is one aggregated entry of a hierarchical search.
type SearchResult struct {
	LookupResult
	Depth int // depth below the search prefix
}

// Search resolves every node in the subtree rooted at prefix, up to
// maxDepth levels below it and at most limit results (0 = no limit),
// decomposing the search into individual lookups as §2.1 describes and
// aggregating the results. Lookups for sibling branches are issued
// breadth-first; failures of individual entries, lost ones (core.FailLost)
// included, are reported in the result (OK=false) rather than aborting the
// search, which only an error of Lookup — ctx ending, say — cuts short.
func (n *Node) Search(ctx context.Context, prefix string, maxDepth, limit int) ([]SearchResult, error) {
	root := n.tree.Lookup(prefix)
	if root == namespace.Invalid {
		return nil, fmt.Errorf("overlay: no such name %q", prefix)
	}
	type item struct {
		id    core.NodeID
		depth int
	}
	frontier := []item{{id: root, depth: 0}}
	var out []SearchResult
	for len(frontier) > 0 {
		it := frontier[0]
		frontier = frontier[1:]
		if limit > 0 && len(out) >= limit {
			break
		}
		res, err := n.Lookup(ctx, it.id)
		if err != nil {
			return out, err
		}
		out = append(out, SearchResult{LookupResult: res, Depth: it.depth})
		if it.depth < maxDepth {
			for _, c := range n.tree.Children(it.id) {
				frontier = append(frontier, item{id: c, depth: it.depth + 1})
			}
		}
	}
	return out, nil
}

// StoreData stores application data on a node this server owns. Call before
// Start (or after Stop): while the node is running, its loop owns the peer.
// It reports whether this server owns the node.
func (n *Node) StoreData(nd core.NodeID, data []byte) bool {
	return n.peer.SetData(nd, data)
}

// Snapshot is a point-in-time view of a live node's protocol state, safe to
// collect while the node runs (gathered inside the event loop; on a stopped
// node the quiescent state is read directly).
type Snapshot struct {
	ID        core.ServerID
	Owned     int
	Replicas  int
	Cache     int
	Load      float64
	Dropped   int64
	Stats     core.Stats
	Transport TransportStats
}

// Snapshot collects monitoring counters from the node.
func (n *Node) Snapshot() Snapshot {
	s := Snapshot{
		ID:      n.id,
		Dropped: n.dropped.Load(),
	}
	collect := func(p *core.Peer) {
		s.Owned = p.OwnedCount()
		s.Replicas = p.ReplicaCount()
		s.Cache = p.CacheLen()
		s.Load = n.load()
		s.Stats = p.StatsView()
	}
	if !n.inspect(false, collect) {
		collect(n.peer) // node stopped: the loop is quiescent
	}
	s.Transport, _ = n.TransportStats()
	return s
}
