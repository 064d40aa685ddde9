package overlay

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/rng"
)

// benchCluster boots a local overlay and pre-warms the caches so the
// benchmark measures steady-state routing, not cold-start path propagation.
func benchCluster(b *testing.B, servers int) *LocalCluster {
	b.Helper()
	tree := testTree()
	opts := LocalClusterOptions{Servers: servers, Seed: 11}
	c, err := NewLocalCluster(tree, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.StopAll)
	ctx := context.Background()
	for i := 0; i < 2*tree.Len(); i++ {
		if _, err := c.Lookup(ctx, i%servers, core.NodeID((i*7919+3)%tree.Len())); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkLookupThroughput measures sequential end-to-end lookup latency on
// the live in-process overlay (one goroutine per server, real event loops and
// channels — the protocol path a TCP deployment runs minus the sockets).
func BenchmarkLookupThroughput(b *testing.B) {
	c := benchCluster(b, 8)
	n := c.Tree().Len()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Lookup(ctx, i%8, core.NodeID((i*7919+3)%n))
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatalf("lookup failed: %+v", res)
		}
	}
}

// BenchmarkLookupThroughputParallel is the same workload issued from many
// client goroutines at once — the aggregate throughput figure.
func BenchmarkLookupThroughputParallel(b *testing.B) {
	c := benchCluster(b, 8)
	n := c.Tree().Len()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		i := 0
		for pb.Next() {
			i++
			res, err := c.Lookup(ctx, i%8, core.NodeID((i*104729+1)%n))
			if err != nil {
				b.Fatal(err)
			}
			if !res.OK {
				b.Fatalf("lookup failed: %+v", res)
			}
		}
	})
}

// BenchmarkLookupDenseZipf is the shape bench/README.md Finding 1 could not
// measure steadily: 16 servers × 2,048 hosted nodes of the paper-size
// namespace, Zipf(0.9) destinations, one closed-loop client per processor.
// Every event loop republishes its routing snapshot after each batch, so
// this is where a publish whose cost follows the hosted count shows: as
// stalls (p99-us, max-us) before it shows in the mean.
func BenchmarkLookupDenseZipf(b *testing.B) {
	tree := namespace.NewBalanced(2, 15) // 32,767 nodes
	const servers = 16
	opts := LocalClusterOptions{Servers: servers, Seed: 11}
	c, err := NewLocalCluster(tree, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.StopAll)
	zipf := rng.NewZipf(rng.New(5), tree.Len(), 0.9)
	dests := make([]core.NodeID, 1<<16)
	for i := range dests {
		dests[i] = core.NodeID(zipf.Sample())
	}
	ctx := context.Background()
	for i := 0; i < 20000; i++ { // warm caches and digests
		if _, err := c.Lookup(ctx, i%servers, dests[i%len(dests)]); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	var mu sync.Mutex
	var lat []time.Duration
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var mine []time.Duration
		for pb.Next() {
			i := int(next.Add(1))
			start := time.Now()
			res, err := c.Lookup(ctx, i%servers, dests[i%len(dests)])
			mine = append(mine, time.Since(start))
			if err != nil || !res.OK {
				b.Errorf("lookup failed: %v %+v", err, res)
				return
			}
		}
		mu.Lock()
		lat = append(lat, mine...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
	b.ReportMetric(float64(lat[len(lat)-1].Microseconds()), "max-us")
}
