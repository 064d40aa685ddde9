package overlay

import (
	"context"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/membership"
)

// churnProto is the accelerated failure-detector tuning for the e2e test:
// fast enough that detection, handoff and rejoin all fit in seconds, slow
// enough that the race detector's scheduling drag doesn't cause false
// suspicion on a loopback network.
func churnProto(i int) membership.Options {
	return membership.Options{
		ProbeInterval:    50 * time.Millisecond,
		SuspicionTimeout: 250 * time.Millisecond,
		Seed:             uint64(i)*31 + 1,
	}
}

// TestTCPChurnE2E is the full dynamic-membership scenario over real sockets:
// a 5-peer TCP overlay under workload loses one peer, the survivors detect
// the death by gossip, hand its partition to the ring successor, purge stale
// references, keep resolving lookups, and later readmit the peer when it
// rejoins via the bootstrap path — without restarting the cluster.
func TestTCPChurnE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("churn e2e needs multiple real-time suspicion timeouts")
	}
	const n = 5
	const victim = core.ServerID(2)
	successor := core.ServerID(3) // first alive in ring order after the victim
	tree := testTree()
	owner := Assign(tree, n, 7)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, n)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	victimNode := ownedByServer(t, owner, victim)

	// Every transport gets its OWN address map: membership rewrites addresses
	// at runtime (SetAddr), so the map must not be shared across peers.
	transports := make([]*TCPTransport, n)
	for i := 0; i < n; i++ {
		tr, err := NewTCPTransportOpts(core.ServerID(i), "127.0.0.1:0",
			map[core.ServerID]string{}, TCPTransportOptions{Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
	}
	addrOf := make(map[core.ServerID]string, n)
	for i := 0; i < n; i++ {
		addrOf[core.ServerID(i)] = transports[i].Addr()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			transports[i].SetAddr(core.ServerID(j), addrOf[core.ServerID(j)])
		}
	}
	peersCopy := func() map[core.ServerID]string {
		m := make(map[core.ServerID]string, n)
		for k, v := range addrOf {
			m[k] = v
		}
		return m
	}

	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nd, err := NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf, Options{
			Seed: uint64(i) + 1,
			Membership: &MembershipOptions{
				Protocol: churnProto(i),
				Servers:  n,
				SelfAddr: transports[i].Addr(),
				Peers:    peersCopy(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		StartTCPNode(nd, transports[i])
	}
	defer func() {
		for i := range nodes {
			nodes[i].Stop()
			transports[i].Close()
		}
	}()

	survivors := []int{0, 1, 3, 4}
	wait := func(d time.Duration, what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("timed out after %v waiting for %s", d, what)
	}
	stateAt := func(i int, id core.ServerID) membership.State {
		st, _ := nodes[i].Membership().StateOf(id)
		return st
	}
	lookups := func(count int, sources []int) (ok int) {
		for r := 0; r < count; r++ {
			src := sources[r%len(sources)]
			dest := core.NodeID((r*7919 + 13) % tree.Len())
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			res, err := nodes[src].Lookup(ctx, dest)
			cancel()
			if err == nil && res.OK {
				ok++
			}
		}
		return ok
	}

	// Phase 1: static convergence, then warm the caches with traffic.
	wait(10*time.Second, "initial all-alive convergence", func() bool {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if stateAt(i, core.ServerID(j)) != membership.Alive {
					return false
				}
			}
		}
		return true
	})
	if got := lookups(100, []int{0, 1, 2, 3, 4}); got < 100 {
		t.Fatalf("healthy cluster resolved only %d/100 lookups", got)
	}

	// Phase 2: crash the victim mid-workload.
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for r := 0; ; r++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			src := survivors[r%len(survivors)]
			dest := core.NodeID((r*31 + 5) % tree.Len())
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, _ = nodes[src].Lookup(ctx, dest) // failures expected during churn
			cancel()
		}
	}()

	crashed := time.Now()
	nodes[victim].Stop()
	transports[victim].Close()

	wait(10*time.Second, "survivors to declare the victim dead", func() bool {
		for _, i := range survivors {
			if stateAt(i, victim) != membership.Dead {
				return false
			}
		}
		return true
	})
	detection := time.Since(crashed)
	t.Logf("death detected on all survivors after %v", detection)
	close(stopLoad)
	loadWG.Wait()

	// Phase 3: handoff and soft-state repair.
	for _, i := range survivors {
		if got := nodes[i].Ownership().Owner(victimNode); got != successor {
			t.Errorf("server %d routes node %d to %d, want successor %d",
				i, victimNode, got, successor)
		}
		var purges int64
		if !nodes[i].Inspect(func(p *core.Peer) { purges += p.StatsView().ServerPurges }) {
			t.Fatalf("server %d stopped unexpectedly", i)
		}
		if purges == 0 {
			t.Errorf("server %d never purged the dead server's soft state", i)
		}
	}
	var adopted int
	nodes[successor].Inspect(func(p *core.Peer) { adopted += p.AdoptedCount() })
	if adopted == 0 {
		t.Error("ring successor adopted none of the dead server's partition")
	}

	// Phase 4: the converged cluster must still resolve ≥99% of lookups.
	const post = 300
	if ok := lookups(post, survivors); ok*100 < post*99 {
		t.Fatalf("post-churn success rate %d/%d, want ≥99%%", ok, post)
	}

	// Phase 5: the victim rejoins as a fresh process via the bootstrap path —
	// no static peer list, no cluster restart, a brand-new port.
	freshTr, err := NewTCPTransportOpts(victim, "127.0.0.1:0",
		map[core.ServerID]string{}, TCPTransportOptions{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewNode(victim, tree, ownedBy[victim], ownerOf, Options{
		Seed: 99,
		Membership: &MembershipOptions{
			Protocol: churnProto(int(victim) + 50),
			Servers:  n,
			SelfAddr: freshTr.Addr(),
			JoinAddr: transports[0].Addr(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes[victim], transports[victim] = fresh, freshTr
	StartTCPNode(fresh, freshTr)

	wait(15*time.Second, "survivors to readmit the rejoined peer", func() bool {
		if !fresh.Membership().Joined() {
			return false
		}
		for _, i := range survivors {
			if stateAt(i, victim) != membership.Alive {
				return false
			}
		}
		return true
	})
	// Ownership reverts to the base assignment and the successor lets go.
	wait(10*time.Second, "ownership to revert to the rejoined peer", func() bool {
		for _, i := range survivors {
			if nodes[i].Ownership().Owner(victimNode) != victim {
				return false
			}
		}
		var stillAdopted int
		nodes[successor].Inspect(func(p *core.Peer) { stillAdopted += p.AdoptedCount() })
		return stillAdopted == 0
	})
	// The joiner was warmed up with replica advertisements from the survivors.
	wait(10*time.Second, "the joiner to absorb warmup state", func() bool {
		warm := false
		fresh.Inspect(func(p *core.Peer) { warm = warm || p.CacheLen() > 0 || p.ReplicaCount() > 0 })
		return warm
	})

	// Phase 6: whole cluster (including the rejoined peer) serves traffic.
	const final = 200
	if ok := lookups(final, []int{0, 1, 2, 3, 4}); ok*100 < final*99 {
		t.Fatalf("post-rejoin success rate %d/%d, want ≥99%%", ok, final)
	}
}

// TestRepeatLookupAfterOwnerCrash resolves a node, crashes its owner, and
// repeats the lookup from the same server once membership declares the owner
// dead: the repeat must succeed and must not name the crashed server, even
// though the first result put it in the source's own maps.
func TestRepeatLookupAfterOwnerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("needs real-time failure detection")
	}
	c := startLocal(t, 5, func(o *LocalClusterOptions) {
		o.Fault = &FaultOptions{}
		o.Node.Membership = inProcessMembership(5, churnProto(3))
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const victim = core.ServerID(2)
	var dest core.NodeID
	found := false
	for nd := 0; nd < c.Tree().Len(); nd++ {
		if c.OwnerOf(core.NodeID(nd)) == victim {
			dest, found = core.NodeID(nd), true
			break
		}
	}
	if !found {
		t.Fatalf("server %d owns nothing", victim)
	}

	res, err := c.Lookup(ctx, 0, dest)
	if err != nil || !res.OK {
		t.Fatalf("warm lookup failed: %+v, %v", res, err)
	}

	c.Fault().Crash(victim)
	c.Node(int(victim)).Stop()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if st, _ := c.Node(0).Membership().StateOf(victim); st == membership.Dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for server 0 to declare the victim dead")
		}
		time.Sleep(20 * time.Millisecond)
	}

	res, err = c.Lookup(ctx, 0, dest)
	if err != nil || !res.OK {
		t.Fatalf("post-crash repeat lookup failed: %+v, %v", res, err)
	}
	for _, h := range res.Hosts {
		if h == victim {
			t.Fatalf("repeat lookup result names the crashed server: %+v", res.Hosts)
		}
	}
}
