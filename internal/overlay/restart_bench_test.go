package overlay

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/rng"
)

// BenchmarkWholeClusterRestartRecovery measures what replayed replicas buy
// after a whole-cluster restart. Eight persistent servers on a 2,047-node
// tree serve a Zipf(0.9) lookup stream offered at one lookup per
// millisecond by 32 workers, each query costing 3 ms of a server's capacity
// (Options.ServiceCost), so the mean server reads about 0.7 and the hot
// ones cross Thigh. The stream runs until the cluster holds at least 50
// replicas. Every node then writes one snapshot, all stop, and all reopen
// from their directories. The same stream continues in windows of 500
// lookups. Iteration i runs seed i+1 and logs the replicas restored, the
// lookups that died at the hop limit in the first window, and the windows
// until hops_mean is back within 5 % of the last window before the restart
// (41 means not within 40 windows). Seeds 1–5, after the framework's
// one-iteration probe:
//
//	go test ./internal/overlay -run '^$' -bench WholeClusterRestartRecovery -benchtime 5x -timeout 0
func BenchmarkWholeClusterRestartRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		r := restartRecovery(b, seed)
		b.Logf("seed %d: %d replicas, hops %.3f before; %d replicas restored; first window: %d TTL, %d failed, hops %.3f; %d windows to recover",
			seed, r.replicasBefore, r.hopsBefore, r.restored, r.firstTTL, r.firstFailed, r.firstHops, r.recoveryWindows)
	}
}

type recoveryRun struct {
	replicasBefore, restored               int
	firstTTL, firstFailed, recoveryWindows int
	hopsBefore, firstHops                  float64
}

func restartRecovery(b *testing.B, seed uint64) recoveryRun {
	const servers, window, workers, every = 8, 500, 32, time.Millisecond
	tree := namespace.NewBalanced(2, 10)
	owner := Assign(tree, servers, 1)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, servers)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	dir := b.TempDir()
	boot := func() ([]*Node, *LocalTransport) {
		lt := NewLocalTransport(0)
		nodes := make([]*Node, servers)
		for i := range nodes {
			cfg := core.DefaultConfig()
			cfg.ReplicationCooldown = 0.05
			n, err := NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf, Options{
				Seed:        1 + uint64(i)*7919,
				ServiceCost: 3 * time.Millisecond,
				QueueCap:    256,
				Config:      cfg,
				Persist: &PersistOptions{
					Dir:              filepath.Join(dir, fmt.Sprintf("node%d", i)),
					SnapshotInterval: time.Hour, // the one snapshot is forced
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			n.SetTransport(lt)
			lt.Register(n)
			nodes[i] = n
		}
		return nodes, lt
	}
	replicas := func(nodes []*Node) int {
		total := 0
		for _, n := range nodes {
			n.Inspect(func(p *core.Peer) { total += p.ReplicaCount() })
		}
		return total
	}
	src := rng.New(seed)
	zipf := rng.NewZipf(src, tree.Len(), 0.9)
	// run serves the next window of the stream and returns its mean hop count
	// over resolved lookups, its hop-limit failures and all its failures.
	run := func(nodes []*Node) (hops float64, ttl, failed int) {
		type op struct {
			from int
			dest core.NodeID
		}
		ops := make([]op, window)
		for i := range ops {
			ops[i] = op{src.Intn(servers), core.NodeID(zipf.Sample())}
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		sum, ok := 0, 0
		tick := time.NewTicker(every)
		defer tick.Stop()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ops); i += workers {
					<-tick.C
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					res, err := nodes[ops[i].from].Lookup(ctx, ops[i].dest)
					cancel()
					mu.Lock()
					switch {
					case err == nil && res.OK:
						sum += res.Hops
						ok++
					case err == nil && res.Reason == core.FailTTL:
						ttl++
						failed++
					default:
						failed++
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		return float64(sum) / float64(max(ok, 1)), ttl, failed
	}

	r := recoveryRun{recoveryWindows: 41}
	nodes, lt := boot()
	for _, n := range nodes {
		n.Start()
	}
	for w := 0; w < 400 && r.replicasBefore < 50; w++ {
		r.hopsBefore, _, _ = run(nodes)
		r.replicasBefore = replicas(nodes)
	}
	for _, n := range nodes {
		n.writeSnapshot()
	}
	for _, n := range nodes {
		n.Stop()
	}
	lt.Close()

	nodes, lt = boot()
	for _, n := range nodes {
		r.restored += n.ReplicaCount() // not started yet: direct reads are safe
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
		lt.Close()
	}()
	for w := 1; w <= 40; w++ {
		hops, ttl, failed := run(nodes)
		if w == 1 {
			r.firstHops, r.firstTTL, r.firstFailed = hops, ttl, failed
		}
		if math.Abs(hops-r.hopsBefore) <= 0.05*r.hopsBefore {
			r.recoveryWindows = w
			break
		}
	}
	return r
}
