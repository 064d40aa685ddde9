package overlay

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"terradir/internal/core"
)

// TestFastPathRaceStress hammers the lock-free lookup fast path from many
// client goroutines while the event loops concurrently rewrite routing
// state underneath it: soft-state learning (LearnMaps), server purges
// (PurgeServer, which scrubs cache entries, replica maps, and neighbor
// references), and the snapshot republishes each mutation triggers. Every
// mutation goes through Inspect, so the readers race only against the
// atomic snapshot swaps — exactly the invariant the copy-on-write design
// must hold. Run under -race; it is the detector, not assertions here, that
// gives this test its teeth. Each node runs one event loop, hence the
// single shards=1 case.
func TestFastPathRaceStress(t *testing.T) {
	t.Run("shards=1", runFastPathRaceStress)
}

func runFastPathRaceStress(t *testing.T) {
	tree := testTree()
	c, err := NewLocalCluster(tree, LocalClusterOptions{Servers: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Warm the caches so readers actually take the snapshot fast path.
	for i := 0; i < 2*tree.Len(); i++ {
		if _, err := c.Lookup(ctx, i%4, core.NodeID((i*7919+3)%tree.Len())); err != nil {
			t.Fatal(err)
		}
	}

	const (
		readers          = 4
		lookupsPerReader = 400
	)
	var (
		readerWG  sync.WaitGroup
		mutatorWG sync.WaitGroup
		mutating  atomic.Bool
	)
	mutating.Store(true)

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; i < lookupsPerReader; i++ {
				dest := core.NodeID((i*104729 + r*7919 + 1) % tree.Len())
				res, err := c.Lookup(ctx, (r+i)%4, dest)
				if err != nil {
					t.Errorf("reader %d: lookup %d: %v", r, i, err)
					return
				}
				if !res.OK {
					t.Errorf("reader %d: lookup %d to node %d failed: %+v", r, i, dest, res)
					return
				}
			}
		}(r)
	}

	// Mutator: cycles every node through purge-then-relearn until the
	// readers drain. PurgeServer rewrites the cache, hosted replicas, and
	// NodeMaps in place; LearnMaps repopulates; each Inspect forces a
	// snapshot republish before fast serves resume. All servers stay alive,
	// so lookups must keep succeeding no matter which references are
	// scrubbed mid-flight.
	mutatorWG.Add(1)
	go func() {
		defer mutatorWG.Done()
		relearn := make([]core.PathEntry, 0, 8)
		for round := 0; mutating.Load(); round++ {
			victim := core.ServerID((round + 1) % 4)
			for i := 0; i < 4; i++ {
				relearn = relearn[:0]
				for k := 0; k < 8; k++ {
					nd := core.NodeID((round*31 + k*13) % tree.Len())
					relearn = append(relearn, core.PathEntry{
						Node: nd, Map: core.SingleServerMap(c.OwnerOf(nd)),
					})
				}
				entries := relearn
				c.Node(i).Inspect(func(p *core.Peer) {
					p.PurgeServer(victim, c.OwnerOf)
					p.LearnMaps(entries)
				})
			}
		}
	}()

	readerWG.Wait()
	mutating.Store(false)
	mutatorWG.Wait()
}

// TestFastPathPathTrimRace: with MaxPathEntries 2, and no cache or digests to
// shorten routes, every forward past the first trims the path it received,
// while the previous hop's loop may still be absorbing that path from the
// query it served. Paths are append-only, so a trim must build a fresh slice;
// shifting in place would rewrite an entry that hop is reading. A network
// delay puts the next hop on another goroutine. Run under -race.
func TestFastPathPathTrimRace(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxPathEntries = 2
	cfg.CachingEnabled = false
	cfg.DigestsEnabled = false
	c := startLocal(t, 8, func(o *LocalClusterOptions) {
		o.NetDelay = 20 * time.Microsecond
		o.Node.Config = cfg
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var trimmed atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				dest := core.NodeID((i*104729 + r*7919 + 1) % c.Tree().Len())
				res, err := c.Lookup(ctx, (i+r)%c.Servers(), dest)
				if err != nil || !res.OK {
					t.Errorf("lookup of %d: %+v, %v", dest, res, err)
					return
				}
				if res.Hops >= 2 {
					trimmed.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	if trimmed.Load() == 0 {
		t.Fatal("no route took the two hops a trim needs")
	}
}
