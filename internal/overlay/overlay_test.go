package overlay

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/membership"
	"terradir/internal/namespace"
	"terradir/internal/rng"
)

func testTree() *namespace.Tree {
	return namespace.NewBalanced(2, 8) // 255 nodes
}

func startLocal(t *testing.T, servers int, mut func(*LocalClusterOptions)) *LocalCluster {
	t.Helper()
	opts := LocalClusterOptions{Servers: servers, Seed: 11}
	if mut != nil {
		mut(&opts)
	}
	c, err := NewLocalCluster(testTree(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	return c
}

// inProcessMembership runs the gossip membership subsystem on every node of
// a LocalCluster with the given protocol options, all servers seeded as the
// initial member set (LocalTransport routes by ID, so addresses are empty).
func inProcessMembership(servers int, proto membership.Options) *MembershipOptions {
	peers := make(map[core.ServerID]string, servers)
	for i := 0; i < servers; i++ {
		peers[core.ServerID(i)] = ""
	}
	return &MembershipOptions{Protocol: proto, Servers: servers, Peers: peers}
}

func TestLocalLookupResolves(t *testing.T) {
	c := startLocal(t, 8, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := c.Lookup(ctx, 0, core.NodeID(200))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("lookup failed: %+v", res)
	}
	if res.Node != 200 || res.Name == "" {
		t.Fatalf("result identity wrong: %+v", res)
	}
	found := false
	for _, h := range res.Hosts {
		if h == c.OwnerOf(200) {
			found = true
		}
	}
	if !found {
		t.Fatalf("owner missing from hosts: %+v", res.Hosts)
	}
}

func TestLocalLookupByName(t *testing.T) {
	c := startLocal(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	name := c.Tree().Name(77)
	res, err := c.LookupName(ctx, 1, name)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Name != name {
		t.Fatalf("name lookup: %+v", res)
	}
	if _, err := c.LookupName(ctx, 1, "/no/such/name"); err == nil {
		t.Fatal("bogus name accepted")
	}
}

func TestLocalManyLookupsAllServers(t *testing.T) {
	c := startLocal(t, 8, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	src := rng.New(5)
	for i := 0; i < 200; i++ {
		from := src.Intn(8)
		dest := core.NodeID(src.Intn(c.Tree().Len()))
		res, err := c.Lookup(ctx, from, dest)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if !res.OK {
			t.Fatalf("lookup %d failed: %+v", i, res)
		}
	}
}

func TestLocalConcurrentLookups(t *testing.T) {
	c := startLocal(t, 8, func(o *LocalClusterOptions) {
		o.Node.QueueCap = 512
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(g) + 100)
			for i := 0; i < 50; i++ {
				res, err := c.Lookup(ctx, g, core.NodeID(src.Intn(c.Tree().Len())))
				if err != nil {
					errs <- err
					return
				}
				if !res.OK {
					errs <- fmt.Errorf("goroutine %d lookup %d failed: %v", g, i, res.Reason)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLocalNetDelayStillResolves(t *testing.T) {
	c := startLocal(t, 4, func(o *LocalClusterOptions) {
		o.NetDelay = 2 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Lookup(ctx, 2, 99)
	if err != nil || !res.OK {
		t.Fatalf("lookup with delay: %v %+v", err, res)
	}
	if res.Latency <= 0 {
		t.Fatalf("latency not measured: %v", res.Latency)
	}
}

func TestLookupContextCancel(t *testing.T) {
	c := startLocal(t, 4, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Lookup(ctx, 0, 1); err == nil {
		t.Fatal("cancelled lookup succeeded")
	}
}

func TestLookupUnknownNode(t *testing.T) {
	c := startLocal(t, 4, nil)
	if _, err := c.Node(0).Lookup(context.Background(), core.NodeID(1<<20)); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestAssignDeterministicAndCovering(t *testing.T) {
	tree := testTree()
	a := Assign(tree, 8, 42)
	b := Assign(tree, 8, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("assignment not deterministic")
		}
		if a[i] < 0 || a[i] >= 8 {
			t.Fatalf("assignment out of range: %d", a[i])
		}
	}
	c := Assign(tree, 8, 43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical assignment")
	}
}

// offer looks hot up from every listed server, each at most once per every,
// until stop returns true or the deadline passes. A fixed offered rate makes
// a server's load (served queries × ServiceCost / Ω) independent of how fast
// the host runs; every 0 offers as fast as lookups return.
func offer(c *LocalCluster, sources []int, hot core.NodeID, every time.Duration, stop func() bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, src := range sources {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			var tick <-chan time.Time
			if every > 0 {
				ticker := time.NewTicker(every)
				defer ticker.Stop()
				tick = ticker.C
			}
			for !stop() && ctx.Err() == nil {
				_, _ = c.Lookup(ctx, src, hot)
				if tick != nil {
					<-tick
				}
			}
		}(src)
	}
	wg.Wait()
}

func TestReplicationUnderLiveLoad(t *testing.T) {
	// Every other server offers 200 lookups/s of one hot node at 2 ms of
	// capacity a query. The owner serves all 600/s and reads saturated; each
	// source is charged for its own forwards only, 0.4, cool enough to take
	// a replica.
	c := startLocal(t, 4, func(o *LocalClusterOptions) {
		o.Node.ServiceCost = 2 * time.Millisecond
		o.Node.QueueCap = 256
		cfg := core.DefaultConfig()
		cfg.ReplicationCooldown = 0.05
		o.Node.Config = cfg
	})
	hot := core.NodeID(123)
	owner := c.OwnerOf(hot)
	var sources []int
	for i := 0; i < 4; i++ {
		if core.ServerID(i) != owner {
			sources = append(sources, i)
		}
	}
	replicated := func() bool {
		for i := 0; i < 4; i++ {
			if c.Node(i).Snapshot().Replicas > 0 {
				return true
			}
		}
		return false
	}
	offer(c, sources, hot, 5*time.Millisecond, replicated)
	if !replicated() {
		t.Fatal("no live replication despite sustained hot-spot load")
	}
	// The owner ran the production executor, not only the loop.
	if fast := snapshotPrefix(c.Node(int(owner)).Registry().Snapshot(), "terradir_fastpath_resolved_total"); fast == 0 {
		t.Fatal("owner resolved nothing on the fast path")
	}
}

// TestLoadCountsFastPathServes checks that the replication trigger's load
// sees queries the lock-free fast path serves, at the default cost and at
// one that saturates the owner.
func TestLoadCountsFastPathServes(t *testing.T) {
	const hot = core.NodeID(200) // a leaf of testTree
	metric := func(n *Node, name string) float64 {
		return snapshotPrefix(n.Registry().Snapshot(), name)
	}

	t.Run("default-cost", func(t *testing.T) {
		const servers = 6
		c := startLocal(t, servers, nil)
		owner := int(c.OwnerOf(hot))
		var clients, bystanders []int
		for i := 0; i < servers; i++ {
			switch {
			case i == owner:
			case len(clients) < 3:
				clients = append(clients, i)
			default:
				bystanders = append(bystanders, i)
			}
		}
		// A fixed rate, about 3k lookups/s in all: unthrottled clients on a
		// fast host push the owner past the default capacity (50k/s), and the
		// replicas it then places make a bystander hot too.
		deadline := time.Now().Add(500 * time.Millisecond)
		offer(c, clients, hot, time.Millisecond, func() bool { return time.Now().After(deadline) })
		for i := 0; i < servers; i++ {
			if n := c.Node(i).Snapshot().Stats.SessionsStarted; n > 0 {
				t.Fatalf("server %d started %d replication sessions at the default cost", i, n)
			}
		}
		ownerLoad := metric(c.Node(owner), "terradir_server_load")
		if ownerLoad <= 0 {
			t.Fatalf("owner load = %v after serving a hot spot on the fast path", ownerLoad)
		}
		for _, b := range bystanders {
			if l := metric(c.Node(b), "terradir_server_load"); l >= ownerLoad {
				t.Fatalf("server %d, off the hot route, reads load %v >= owner's %v", b, l, ownerLoad)
			}
		}
	})

	t.Run("cost", func(t *testing.T) {
		c := startLocal(t, 4, func(o *LocalClusterOptions) {
			o.Node.ServiceCost = time.Millisecond
			cfg := core.DefaultConfig()
			cfg.ReplicationCooldown = 0.05
			o.Node.Config = cfg
		})
		owner := c.Node(int(c.OwnerOf(hot)))
		var clients []int
		for i := 0; i < 4; i++ {
			if i != int(owner.ID()) {
				clients = append(clients, i)
			}
		}
		started := func() bool { return owner.Snapshot().Stats.SessionsStarted > 0 }
		offer(c, clients, hot, 0, started)
		if fast := metric(owner, "terradir_fastpath_resolved_total"); fast == 0 {
			t.Fatal("owner resolved nothing on the fast path")
		}
		if !started() {
			t.Fatal("owner started no replication session under a costly hot spot")
		}
	})
}

func TestTCPClusterLookup(t *testing.T) {
	tree := testTree()
	const servers = 3
	owner := Assign(tree, servers, 7)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, servers)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	// Bind listeners first so the address map is complete before any sends.
	transports := make([]*TCPTransport, servers)
	addrs := map[core.ServerID]string{}
	for i := 0; i < servers; i++ {
		tr, err := NewTCPTransport(core.ServerID(i), "127.0.0.1:0", addrs)
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		addrs[core.ServerID(i)] = tr.Addr()
	}
	nodes := make([]*Node, servers)
	for i := 0; i < servers; i++ {
		n, err := NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf, Options{Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		StartTCPNode(n, transports[i])
	}
	defer func() {
		for i := range nodes {
			nodes[i].Stop()
			transports[i].Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 30; i++ {
		from := i % servers
		dest := core.NodeID((i * 37) % tree.Len())
		res, err := nodes[from].Lookup(ctx, dest)
		if err != nil {
			t.Fatalf("tcp lookup %d: %v", i, err)
		}
		if !res.OK {
			t.Fatalf("tcp lookup %d failed: %+v", i, res)
		}
	}
}

func TestTCPSendToUnknownServer(t *testing.T) {
	tr, err := NewTCPTransport(0, "127.0.0.1:0", map[core.ServerID]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(0, 5, &core.LoadProbeMsg{Session: 1, From: 0}); err == nil {
		t.Fatal("send to unmapped server succeeded")
	}
}

func TestNodeStopIdempotentLookupAfterStop(t *testing.T) {
	c := startLocal(t, 2, nil)
	n := c.Node(0)
	n.Stop()
	n.Stop() // idempotent
	if _, err := n.Lookup(context.Background(), 1); err == nil {
		// A lookup may still enqueue; it must at least not hang. Give it a
		// bounded wait via context instead.
		t.Log("lookup after stop returned success unexpectedly")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	c := startLocal(t, 2, func(o *LocalClusterOptions) { o.Node.QueueCap = 1 })
	n := c.Node(0)
	defer holdLoop(n)()
	// Flood without waiting: most must be dropped, none may block.
	for i := 0; i < 50; i++ {
		n.Deliver(&core.QueryMsg{QueryID: uint64(i) + 1000, Dest: 3, Source: 1})
	}
	if n.InboxDropped() == 0 {
		t.Fatal("no drops despite queue bound 1")
	}
}

func TestGetRetrievesOwnerData(t *testing.T) {
	tree := testTree()
	c, err := NewLocalCluster(tree, LocalClusterOptions{Servers: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	target := core.NodeID(42)
	owner := c.OwnerOf(target)
	// Safe: the loop is idle — no traffic has touched this peer yet.
	if !c.Node(int(owner)).StoreData(target, []byte("payload-42")) {
		t.Fatal("StoreData refused on owner")
	}
	if c.Node(int((owner+1)%6)).StoreData(target, []byte("x")) {
		t.Fatal("StoreData accepted on non-owner")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	from := (int(owner) + 1) % 6
	res, data, err := c.Node(from).Get(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || string(data) != "payload-42" {
		t.Fatalf("Get: %+v %q", res, data)
	}
	// Local fast path: the owner fetching its own data.
	_, data2, err := c.Node(int(owner)).Get(ctx, target)
	if err != nil || string(data2) != "payload-42" {
		t.Fatalf("owner-local Get: %v %q", err, data2)
	}
}

func TestGetNoData(t *testing.T) {
	c := startLocal(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// No data stored anywhere: Get must fail with a clear error but the
	// lookup part must succeed.
	res, _, err := c.Node(0).Get(ctx, 9)
	if err == nil {
		t.Fatal("Get succeeded with no data stored")
	}
	if !res.OK {
		t.Fatalf("lookup part failed: %+v", res)
	}
}

func TestSearchSubtree(t *testing.T) {
	c := startLocal(t, 6, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tree := c.Tree()
	prefix := tree.Name(1) // one of the root's children: a large subtree
	out, err := c.Node(0).Search(ctx, prefix, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Subtree of depth 2 below node 1 in a binary tree: 1 + 2 + 4 = 7.
	if len(out) != 7 {
		t.Fatalf("search returned %d entries, want 7", len(out))
	}
	for _, r := range out {
		if !r.OK {
			t.Fatalf("search entry failed: %+v", r)
		}
		if r.Depth < 0 || r.Depth > 2 {
			t.Fatalf("depth out of range: %+v", r)
		}
	}
	// Limit applies.
	out2, err := c.Node(0).Search(ctx, prefix, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 4 {
		t.Fatalf("limited search returned %d", len(out2))
	}
	if _, err := c.Node(0).Search(ctx, "/bogus", 1, 0); err == nil {
		t.Fatal("bogus prefix accepted")
	}
}

func TestSnapshot(t *testing.T) {
	c := startLocal(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := c.Lookup(ctx, 0, core.NodeID(i*7%c.Tree().Len())); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Node(0).Snapshot()
	if s.ID != 0 || s.Owned == 0 {
		t.Fatalf("snapshot identity wrong: %+v", s)
	}
	if s.Stats.Processed == 0 {
		t.Fatal("no processed queries in snapshot")
	}
	if s.Load < 0 || s.Load > 1 {
		t.Fatalf("load out of range: %v", s.Load)
	}
}

func TestLocalTransportErrors(t *testing.T) {
	tr := NewLocalTransport(0)
	if err := tr.Send(0, 5, &core.LoadProbeMsg{}); err == nil {
		t.Fatal("send to unregistered server succeeded")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalClusterAccessorsAndErrors(t *testing.T) {
	c := startLocal(t, 3, nil)
	if c.Servers() != 3 {
		t.Fatalf("Servers = %d", c.Servers())
	}
	if c.Node(1).ID() != 1 {
		t.Fatal("node ID wrong")
	}
	ctx := context.Background()
	if _, err := c.Lookup(ctx, -1, 0); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := c.Lookup(ctx, 99, 0); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := c.LookupName(ctx, 99, "/"); err == nil {
		t.Fatal("out-of-range source accepted by LookupName")
	}
	if _, err := NewLocalCluster(testTree(), LocalClusterOptions{Servers: 0}); err == nil {
		t.Fatal("zero servers accepted")
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	// A broken connection must be forgotten and redialed: kill the receiving
	// transport mid-stream, restart it on the same port, and verify traffic
	// flows again (dropConn + lazy redial path).
	tree := testTree()
	owner := Assign(tree, 2, 7)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, 2)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	addrs := map[core.ServerID]string{}
	tr0, err := NewTCPTransport(0, "127.0.0.1:0", addrs)
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := NewTCPTransport(1, "127.0.0.1:0", addrs)
	if err != nil {
		t.Fatal(err)
	}
	addrs[0] = tr0.Addr()
	addrs[1] = tr1.Addr()
	n0, err := NewNode(0, tree, ownedBy[0], ownerOf, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NewNode(1, tree, ownedBy[1], ownerOf, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	StartTCPNode(n0, tr0)
	StartTCPNode(n1, tr1)
	defer func() { n0.Stop(); n1.Stop(); tr0.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Find a node owned by server 1 so the lookup crosses the wire.
	var remote core.NodeID = -1
	for nd, s := range owner {
		if s == 1 {
			remote = core.NodeID(nd)
			break
		}
	}
	if res, err := n0.Lookup(ctx, remote); err != nil || !res.OK {
		t.Fatalf("initial lookup: %v %+v", err, res)
	}
	// Kill peer 1 outright — node stopped, transport (listener and all
	// connections) closed — then restart it on the same address with fresh
	// soft state, as a real crashed-and-rebooted peer would.
	addr1 := tr1.Addr()
	n1.Stop()
	tr1.Close()
	// Sends during the outage are queued/dropped by the async outbound path;
	// soft state tolerates the loss.
	_ = tr0.Send(0, 1, &core.LoadProbeMsg{Session: 1, From: 0})
	tr1b, err := NewTCPTransport(1, addr1, addrs)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr1, err)
	}
	defer tr1b.Close()
	n1b, err := NewNode(1, tree, ownedBy[1], ownerOf, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	StartTCPNode(n1b, tr1b)
	defer n1b.Stop()
	// Traffic must flow again (writer-goroutine redial with backoff).
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := n0.Lookup(ctx, remote)
		if err == nil && res.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lookup never recovered after transport restart: %v %+v", err, res)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
