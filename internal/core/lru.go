package core

// lruCache is the per-server routing cache (§2.4): a fixed-capacity LRU of
// node → map pointers. Entries are touched whenever used in routing. The
// implementation is an intrusive doubly linked list over a slice arena plus
// a map index — no container/list interface boxing on the hot path.
type lruCache struct {
	capacity int
	index    map[NodeID]int32 // node -> slot
	slots    []lruSlot
	free     []int32
	head     int32 // most recently used
	tail     int32 // least recently used
}

type lruSlot struct {
	node       NodeID
	m          NodeMap
	prev, next int32
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
	return &c.slots[slot].m
}

// Peek returns the cached map without touching recency.
func (c *lruCache) Peek(node NodeID) *NodeMap {
	slot, ok := c.index[node]
	if !ok {
		return nil
	}
	return &c.slots[slot].m
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
		return &c.slots[slot].m
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
	c.slots[slot] = lruSlot{node: node, m: m, prev: lruNil, next: lruNil}
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

// frozen returns an iteration-only deep copy — slots and recency links, no
// index — for a routing snapshot's candidate scan.
func (c *lruCache) frozen() *lruCache {
	f := &lruCache{slots: make([]lruSlot, len(c.slots)), head: c.head, tail: c.tail}
	for i := range c.slots {
		f.slots[i] = c.slots[i]
		f.slots[i].m = c.slots[i].m.Clone()
	}
	return f
}

// Each invokes fn for every cached entry (most recent first). fn must not
// mutate the cache.
func (c *lruCache) Each(fn func(node NodeID, m *NodeMap)) {
	for s := c.head; s != lruNil; s = c.slots[s].next {
		fn(c.slots[s].node, &c.slots[s].m)
	}
}

func (c *lruCache) attachFront(slot int32) {
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
