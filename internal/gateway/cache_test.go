package gateway

import (
	"math/rand"
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
