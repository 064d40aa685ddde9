package core

import (
	"testing"
	"testing/quick"
)

// get reads node's entry as a cache hit does: touched, then read.
func get(c *lruCache, node NodeID) *NodeMap {
	c.Touch(node)
	return c.Peek(node)
}

func TestLRUPutGet(t *testing.T) {
	c := newLRUCache(3)
	c.Put(1, SingleServerMap(10))
	c.Put(2, SingleServerMap(20))
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	m := get(c, 1)
	if m == nil || !m.Contains(10) {
		t.Fatalf("Get(1) = %v", m)
	}
	if get(c, 99) != nil {
		t.Fatal("Get of absent key returned entry")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := newLRUCache(2)
	c.Put(1, SingleServerMap(1))
	c.Put(2, SingleServerMap(2))
	get(c, 1) // 2 is now LRU
	c.Put(3, SingleServerMap(3))
	if get(c, 2) != nil {
		t.Fatal("LRU entry 2 survived")
	}
	if get(c, 1) == nil || get(c, 3) == nil {
		t.Fatal("wrong entry evicted")
	}
}

func TestLRUPeekDoesNotTouch(t *testing.T) {
	c := newLRUCache(2)
	c.Put(1, SingleServerMap(1))
	c.Put(2, SingleServerMap(2))
	c.Peek(1) // must NOT refresh 1
	c.Put(3, SingleServerMap(3))
	if get(c, 1) != nil {
		t.Fatal("Peek refreshed recency")
	}
}

func TestLRUPutReplaces(t *testing.T) {
	c := newLRUCache(2)
	c.Put(1, SingleServerMap(1))
	c.Put(1, SingleServerMap(9))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
	if m := get(c, 1); !m.Contains(9) || m.Contains(1) {
		t.Fatalf("replace failed: %+v", m)
	}
}

func TestLRUDelete(t *testing.T) {
	c := newLRUCache(3)
	c.Put(1, SingleServerMap(1))
	c.Put(2, SingleServerMap(2))
	c.Delete(1)
	if get(c, 1) != nil || c.Len() != 1 {
		t.Fatal("delete failed")
	}
	c.Delete(42) // absent: no-op
	// Freed slot must be reusable.
	c.Put(3, SingleServerMap(3))
	c.Put(4, SingleServerMap(4))
	if c.Len() != 3 {
		t.Fatalf("Len = %d after refill", c.Len())
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := newLRUCache(0)
	if c.Put(1, SingleServerMap(1)) != nil {
		t.Fatal("zero-capacity Put returned a slot")
	}
	if c.Len() != 0 || get(c, 1) != nil {
		t.Fatal("zero-capacity cache stored something")
	}
}

func TestLRUEachOrder(t *testing.T) {
	c := newLRUCache(4)
	for i := NodeID(1); i <= 4; i++ {
		c.Put(i, SingleServerMap(ServerID(i)))
	}
	get(c, 2) // order: 2,4,3,1
	var got []NodeID
	c.Each(func(n NodeID, _ *NodeMap) { got = append(got, n) })
	want := []NodeID{2, 4, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", got, want)
		}
	}
}

func TestLRUInPlaceMutation(t *testing.T) {
	c := newLRUCache(2)
	m := c.Put(5, SingleServerMap(1))
	m.AddRegular(2, 8)
	if got := get(c, 5); !got.Contains(2) {
		t.Fatal("in-place mutation lost")
	}
}

func TestLRUChurnProperty(t *testing.T) {
	// Model-based check against a reference map + recency list.
	c := newLRUCache(8)
	type op struct {
		Key byte
		Del bool
	}
	model := map[NodeID]bool{}
	var order []NodeID // most recent first
	touch := func(k NodeID) {
		for i, v := range order {
			if v == k {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append([]NodeID{k}, order...)
	}
	if err := quick.Check(func(ops []op) bool {
		for _, o := range ops {
			k := NodeID(o.Key % 16)
			if o.Del {
				c.Delete(k)
				if model[k] {
					delete(model, k)
					for i, v := range order {
						if v == k {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
				}
				continue
			}
			c.Put(k, SingleServerMap(ServerID(k)))
			if !model[k] && len(order) == 8 {
				victim := order[len(order)-1]
				order = order[:len(order)-1]
				delete(model, victim)
			}
			model[k] = true
			touch(k)
		}
		if c.Len() != len(model) {
			return false
		}
		for k := range model {
			if c.Peek(k) == nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
