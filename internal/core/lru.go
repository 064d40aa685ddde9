package core

// lruCache is the per-server routing cache (§2.4): a fixed-capacity LRU of
// node → map pointers. Entries are touched whenever used in routing. The
// implementation is an intrusive doubly linked list over a slice arena plus
// a map index — no container/list interface boxing on the hot path.
//
// The cache tracks its own staleness for snapshot publication: stale is set
// by every change of order or membership, and a slot's stale flag by every
// method that hands out its map for writing, so frozen re-clones only the
// maps that changed.
type lruCache struct {
	capacity int
	index    map[NodeID]int32 // node -> slot
	slots    []lruSlot
	free     []int32
	head     int32 // most recently used
	tail     int32 // least recently used
	stale    bool
}

type lruSlot struct {
	node       NodeID
	m          NodeMap
	prev, next int32

	pub   NodeMap // the clone of m last published; immutable
	stale bool    // m changed since pub was taken
}

const lruNil int32 = -1

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		index:    make(map[NodeID]int32, capacity),
		head:     lruNil,
		tail:     lruNil,
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int { return len(c.index) }

// Get returns a pointer to the cached map for node and marks the entry most
// recently used. The pointer is owned by the cache; callers may mutate the
// map in place (merging) but must not retain it across evictions.
func (c *lruCache) Get(node NodeID) *NodeMap {
	slot, ok := c.index[node]
	if !ok {
		return nil
	}
	c.moveToFront(slot)
	return c.edit(slot)
}

// edit hands out slot's map for writing: its published clone goes stale.
func (c *lruCache) edit(slot int32) *NodeMap {
	c.stale, c.slots[slot].stale = true, true
	return &c.slots[slot].m
}

// Touch marks the entry for node, if any, most recently used.
func (c *lruCache) Touch(node NodeID) {
	if slot, ok := c.index[node]; ok {
		c.moveToFront(slot)
	}
}

// Peek returns the cached map without touching recency, for reading only.
func (c *lruCache) Peek(node NodeID) *NodeMap {
	slot, ok := c.index[node]
	if !ok {
		return nil
	}
	return &c.slots[slot].m
}

// Edit returns the cached map without touching recency, for mutation in
// place.
func (c *lruCache) Edit(node NodeID) *NodeMap {
	slot, ok := c.index[node]
	if !ok {
		return nil
	}
	return c.edit(slot)
}

// Put inserts or replaces the entry for node and marks it most recently
// used, evicting the LRU entry if at capacity. It returns a pointer to the
// stored map (for in-place merging) or nil if capacity is zero.
func (c *lruCache) Put(node NodeID, m NodeMap) *NodeMap {
	if c.capacity <= 0 {
		return nil
	}
	if slot, ok := c.index[node]; ok {
		c.slots[slot].m = m
		c.moveToFront(slot)
		return c.edit(slot)
	}
	var slot int32
	switch {
	case len(c.free) > 0:
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	case len(c.slots) < c.capacity:
		c.slots = append(c.slots, lruSlot{})
		slot = int32(len(c.slots) - 1)
	default:
		// Evict LRU.
		slot = c.tail
		c.detach(slot)
		delete(c.index, c.slots[slot].node)
	}
	c.slots[slot] = lruSlot{node: node, m: m, prev: lruNil, next: lruNil, stale: true}
	c.index[node] = slot
	c.attachFront(slot)
	return &c.slots[slot].m
}

// Delete removes the entry for node if present.
func (c *lruCache) Delete(node NodeID) {
	slot, ok := c.index[node]
	if !ok {
		return
	}
	c.detach(slot)
	delete(c.index, node)
	c.slots[slot] = lruSlot{prev: lruNil, next: lruNil}
	c.free = append(c.free, slot)
}

// frozen returns an iteration-only copy — slots and recency links, no index —
// for a routing snapshot's candidate scan. Maps unchanged since the last call
// are shared with the copy it returned (they are immutable clones); only
// stale slots are cloned again, and their number is returned.
func (c *lruCache) frozen() (f *lruCache, recloned int) {
	f = &lruCache{slots: make([]lruSlot, len(c.slots)), head: c.head, tail: c.tail}
	for i := range c.slots {
		s := &c.slots[i]
		if s.stale {
			s.pub, s.stale = s.m.Clone(), false
			recloned++
		}
		f.slots[i] = lruSlot{node: s.node, m: s.pub, prev: s.prev, next: s.next}
	}
	c.stale = false
	return f, recloned
}

// Each invokes fn for every cached entry (most recent first). fn may edit the
// maps in place but must not mutate the cache.
func (c *lruCache) Each(fn func(node NodeID, m *NodeMap)) {
	for s := c.head; s != lruNil; s = c.slots[s].next {
		fn(c.slots[s].node, c.edit(s))
	}
}

func (c *lruCache) attachFront(slot int32) {
	c.stale = true
	c.slots[slot].prev = lruNil
	c.slots[slot].next = c.head
	if c.head != lruNil {
		c.slots[c.head].prev = slot
	}
	c.head = slot
	if c.tail == lruNil {
		c.tail = slot
	}
}

func (c *lruCache) detach(slot int32) {
	c.stale = true
	s := &c.slots[slot]
	if s.prev != lruNil {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != lruNil {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = lruNil, lruNil
}

func (c *lruCache) moveToFront(slot int32) {
	if c.head == slot {
		return
	}
	c.detach(slot)
	c.attachFront(slot)
}
