package gateway

import (
	"math/rand"
	"reflect"
	"testing"

	"terradir/internal/core"
)

// TestRouteCacheClock verifies the second-chance mechanics: referenced
// entries survive the sweep that evicts unreferenced ones.
func TestRouteCacheClock(t *testing.T) {
	c := newRouteCache(4)
	for id := 0; id < 4; id++ {
		c.put(core.NodeID(id), []core.ServerID{core.ServerID(id)})
	}
	// Touch 0 and 2; their reference bits must spare them from the next
	// eviction, which lands on 1 or 3.
	c.get(0)
	c.get(2)
	c.put(100, []core.ServerID{9})
	if c.get(0) == nil || c.get(2) == nil {
		t.Fatal("referenced entries were evicted ahead of unreferenced ones")
	}
	if c.get(100) == nil {
		t.Fatal("inserted entry missing")
	}
	if c.len() != 4 {
		t.Fatalf("cache len %d, want 4 (bounded)", c.len())
	}
	if got := c.get(1); got != nil {
		if c.get(3) != nil {
			t.Fatal("no unreferenced entry was evicted")
		}
	}
	// The insert above referenced everything it touched; a burst of new keys
	// must still terminate and keep the bound.
	for id := 200; id < 220; id++ {
		c.put(core.NodeID(id), []core.ServerID{1})
	}
	if c.len() != 4 {
		t.Fatalf("cache len %d after burst, want 4", c.len())
	}
}

// TestRouteCacheDropRemovesSlots pins the swap-remove path: emptied slots
// disappear, survivors stay reachable through the rebuilt index, and a
// replica set a reader got before the drop is left as it was.
func TestRouteCacheDropRemovesSlots(t *testing.T) {
	c := newRouteCache(8)
	c.put(1, []core.ServerID{7})
	c.put(2, []core.ServerID{7, 8})
	c.put(3, []core.ServerID{7})
	c.put(4, []core.ServerID{9})
	held := c.get(2)
	c.drop(7)
	if len(held) != 2 || held[0] != 7 || held[1] != 8 {
		t.Fatalf("drop rewrote a replica set a reader held: %v", held)
	}
	if c.len() != 2 {
		t.Fatalf("len %d after drop, want 2", c.len())
	}
	if got := c.get(2); len(got) != 1 || got[0] != 8 {
		t.Fatalf("get(2) = %v after drop", got)
	}
	if got := c.get(4); len(got) != 1 || got[0] != 9 {
		t.Fatalf("get(4) = %v after drop", got)
	}
	if c.get(1) != nil || c.get(3) != nil {
		t.Fatal("emptied entries still present")
	}
	// The cache still accepts inserts and evicts correctly afterwards.
	for id := 10; id < 30; id++ {
		c.put(core.NodeID(id), []core.ServerID{1})
	}
	if c.len() != 8 {
		t.Fatalf("len %d after refill, want 8", c.len())
	}
}

// BenchmarkRouteCacheZipf measures the cache hit rate under a Zipf request
// stream over a namespace 16x the cache — the workload the CLOCK policy is
// for. The hit rate is reported as hits/op; random eviction scored ~0.61
// here, second-chance ~0.70 — it holds the Zipf head resident.
func BenchmarkRouteCacheZipf(b *testing.B) {
	const (
		cacheSize = 256
		namespace = 16 * cacheSize
	)
	c := newRouteCache(cacheSize)
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, namespace-1)
	servers := []core.ServerID{0, 1}
	// Warm the cache with one pass so the measured loop sees steady state.
	for i := 0; i < 4*cacheSize; i++ {
		c.put(core.NodeID(zipf.Uint64()), servers)
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd := core.NodeID(zipf.Uint64())
		if c.get(nd) != nil {
			hits++
		} else {
			c.put(nd, servers)
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// TestFeedCacheMatchesRepeatedAnswer: a result addressed to the gateway no
// longer repeats its answer as the last path entry, and the route cache ends
// in the state the repeat left it in — same entries, reference bits and clock
// hand — over random results and lookups on a cache small enough to evict.
func TestFeedCacheMatchesRepeatedAnswer(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	node := func() core.NodeID { return core.NodeID(r.Intn(12)) }
	servers := func() []core.ServerID {
		s := make([]core.ServerID, 1+r.Intn(3))
		for i := range s {
			s[i] = core.ServerID(r.Intn(8))
		}
		return s
	}
	g := &Gateway{cache: newRouteCache(4)}
	repeated := newRouteCache(4)
	for i := 0; i < 5000; i++ {
		if r.Intn(2) == 0 {
			n := node()
			g.cache.get(n)
			repeated.get(n)
			continue
		}
		res := &core.ResultMsg{Dest: node(), OK: r.Intn(4) > 0, Map: core.NodeMap{Servers: servers()}}
		// Entries name the hops' own hosted nodes: a hop hosting Dest resolves.
		for k := r.Intn(4); k > 0; k-- {
			if n := node(); n != res.Dest {
				res.Path = append(res.Path, core.PathEntry{Node: n, Map: core.NodeMap{Servers: servers()}})
			}
		}
		g.feedCache(res)
		// What the gateway did with the same result carrying the repeat.
		path := res.Path
		if res.OK {
			repeated.put(res.Dest, res.Map.Servers)
			path = append(path[:len(path):len(path)], core.PathEntry{Node: res.Dest, Map: res.Map})
		}
		for _, pe := range path {
			repeated.put(pe.Node, pe.Map.Servers)
		}
		c := g.cache
		if !reflect.DeepEqual(c.slots, repeated.slots) || !reflect.DeepEqual(c.idx, repeated.idx) || c.hand != repeated.hand {
			t.Fatalf("step %d: cache %+v (hand %d), with the repeated answer %+v (hand %d)", i, c.slots, c.hand, repeated.slots, repeated.hand)
		}
	}
}
