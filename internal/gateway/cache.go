package gateway

import (
	"slices"
	"sync"

	"terradir/internal/core"
)

// maxCachedServers caps one cache entry's replica set — advert unions must
// not grow an entry without bound when replicas churn.
const maxCachedServers = 8

// rcEntry is one cache slot: a destination node, its last-known replica set,
// and the CLOCK reference bit.
type rcEntry struct {
	node    core.NodeID
	servers []core.ServerID
	ref     bool
}

// routeCache is the gateway-side routing cache: destination node → the
// servers last known to host it (owner plus soft-state replicas). It is fed
// entirely by traffic the gateway already sees — result maps, propagated
// path entries, and piggybacked replica adverts — and steers repeat lookups
// straight to an advertised holder so they resolve in one upstream hop.
// Entries are hints, never authoritative: a stale entry costs at most one
// redirected hop inside the overlay, exactly like any stale soft state.
//
// Eviction is CLOCK second-chance: a get sets the slot's reference bit, and
// the hand sweeps past referenced slots (clearing the bit) to evict the
// first unreferenced one. Under the Zipf traffic gateways see, this keeps
// the hot head resident where random eviction kept churning it out — the
// same policy the overlay's resident hosted cache uses, at hint scale.
type routeCache struct {
	mu    sync.Mutex
	max   int
	slots []rcEntry
	idx   map[core.NodeID]int
	hand  int
}

func newRouteCache(max int) *routeCache {
	return &routeCache{
		max: max,
		idx: make(map[core.NodeID]int, 64),
	}
}

// get returns the cached replica set for node (nil when unknown) and grants
// the entry its second chance. The returned slice is shared — callers must
// not mutate it.
func (c *routeCache) get(node core.NodeID) []core.ServerID {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.idx[node]
	if !ok {
		return nil
	}
	c.slots[i].ref = true
	return c.slots[i].servers
}

func (c *routeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// put replaces node's replica set (newest wins — result maps are complete).
func (c *routeCache) put(node core.NodeID, servers []core.ServerID) {
	if len(servers) == 0 {
		return
	}
	if len(servers) > maxCachedServers {
		servers = servers[:maxCachedServers]
	}
	own := make([]core.ServerID, len(servers))
	copy(own, servers)
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.idx[node]; ok {
		c.slots[i].servers = own
		c.slots[i].ref = true
		return
	}
	c.insertLocked(node, own)
}

// merge unions servers into node's entry (adverts are incremental: they
// announce newly created replicas, not the full set).
func (c *routeCache) merge(node core.NodeID, servers []core.ServerID) {
	if len(servers) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var cur []core.ServerID
	i, have := c.idx[node]
	if have {
		cur = c.slots[i].servers
	} else {
		cur = make([]core.ServerID, 0, len(servers))
	}
next:
	for _, s := range servers {
		for _, h := range cur {
			if h == s {
				continue next
			}
		}
		if len(cur) >= maxCachedServers {
			break
		}
		cur = append(cur, s)
	}
	if have {
		c.slots[i].servers = cur
		c.slots[i].ref = true
		return
	}
	c.insertLocked(node, cur)
}

// insertLocked places a new entry, evicting via the clock hand when full.
// New entries start unreferenced — they earn their second chance when a get
// or a refresh actually touches them, so a one-shot name cannot displace a
// proven-hot one.
func (c *routeCache) insertLocked(node core.NodeID, servers []core.ServerID) {
	if len(c.slots) < c.max {
		c.idx[node] = len(c.slots)
		c.slots = append(c.slots, rcEntry{node: node, servers: servers})
		return
	}
	// Sweep: clear reference bits until an unreferenced slot turns up. Two
	// full revolutions suffice — the first clears every bit.
	for sweep := 0; sweep < 2*len(c.slots); sweep++ {
		s := &c.slots[c.hand]
		if !s.ref {
			delete(c.idx, s.node)
			c.idx[node] = c.hand
			*s = rcEntry{node: node, servers: servers}
			c.hand = (c.hand + 1) % len(c.slots)
			return
		}
		s.ref = false
		c.hand = (c.hand + 1) % len(c.slots)
	}
}

// drop removes a server from every cached entry — called when the prober
// ejects an upstream, so cache-directed picks stop steering at a dead peer
// even before fresh results overwrite the entries. get hands out the
// entries' slices, so the survivors go into a fresh slice, never compacted
// in place under a reader.
func (c *routeCache) drop(server core.ServerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < len(c.slots); {
		servers := c.slots[i].servers
		if !slices.Contains(servers, server) {
			i++
			continue
		}
		kept := make([]core.ServerID, 0, len(servers)-1)
		for _, s := range servers {
			if s != server {
				kept = append(kept, s)
			}
		}
		if len(kept) > 0 {
			c.slots[i].servers = kept
			i++
			continue
		}
		// Entry emptied: swap-remove the slot and fix the moved entry's index.
		delete(c.idx, c.slots[i].node)
		last := len(c.slots) - 1
		if i != last {
			c.slots[i] = c.slots[last]
			c.idx[c.slots[i].node] = i
		}
		c.slots = c.slots[:last]
	}
	if len(c.slots) > 0 {
		c.hand %= len(c.slots)
	} else {
		c.hand = 0
	}
}
