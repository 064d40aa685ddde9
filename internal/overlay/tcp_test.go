package overlay

import (
	"context"
	"maps"
	"net"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/membership"
	"terradir/internal/wire"
)

// startTCPPair boots a two-node TCP overlay and returns the nodes, the
// transports and the shared address map (which the caller may extend with
// phantom peers before traffic starts).
func startTCPPair(t *testing.T, opts TCPTransportOptions) ([]*Node, []*TCPTransport, map[core.ServerID]string) {
	t.Helper()
	return startTCPPairNodes(t, opts, Options{})
}

// startTCPPairNodes is startTCPPair with node options; each node's Seed is
// set here.
func startTCPPairNodes(t *testing.T, opts TCPTransportOptions, nodeOpts Options) ([]*Node, []*TCPTransport, map[core.ServerID]string) {
	t.Helper()
	tree := testTree()
	owner := Assign(tree, 2, 7)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, 2)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	addrs := map[core.ServerID]string{}
	transports := make([]*TCPTransport, 2)
	for i := 0; i < 2; i++ {
		tr, err := NewTCPTransportOpts(core.ServerID(i), "127.0.0.1:0", addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		addrs[core.ServerID(i)] = tr.Addr()
	}
	nodes := make([]*Node, 2)
	for i := 0; i < 2; i++ {
		o := nodeOpts
		o.Seed = uint64(i) + 1
		n, err := NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf, o)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		StartTCPNode(n, transports[i])
	}
	t.Cleanup(func() {
		for i := range nodes {
			nodes[i].Stop()
			transports[i].Close()
		}
	})
	return nodes, transports, addrs
}

// TestTCPStartWhileProbed starts a node while a peer is already probing it,
// so membership frames wait on the new node's listener before it starts.
// Delivery must not race Start: under -race, a read loop delivering into the
// node while Start set up its membership service was reported as a data
// race.
func TestTCPStartWhileProbed(t *testing.T) {
	tree := testTree()
	owner := Assign(tree, 2, 7)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, 2)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	// Every transport and membership service gets its own address map:
	// membership teaches its transport addresses at runtime.
	addrs := map[core.ServerID]string{}
	transports := make([]*TCPTransport, 2)
	for i := range transports {
		tr, err := NewTCPTransportOpts(core.ServerID(i), "127.0.0.1:0", map[core.ServerID]string{}, TCPTransportOptions{Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		addrs[core.ServerID(i)] = tr.Addr()
	}
	for _, tr := range transports {
		for id, a := range addrs {
			tr.SetAddr(id, a)
		}
	}
	nodes := make([]*Node, 2)
	start := func(i int) {
		proto := membership.Options{
			ProbeInterval:    2 * time.Millisecond,
			SuspicionTimeout: time.Minute, // the late starter must not be declared dead
			Seed:             uint64(i) + 1,
		}
		n, err := NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf, Options{
			Seed:       uint64(i) + 1,
			Membership: &MembershipOptions{Protocol: proto, Servers: 2, SelfAddr: addrs[core.ServerID(i)], Peers: maps.Clone(addrs)},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		StartTCPNode(n, transports[i])
	}
	t.Cleanup(func() {
		for i := range nodes {
			if nodes[i] != nil {
				nodes[i].Stop()
			}
			transports[i].Close()
		}
	})

	start(0)
	counter := func(n *Node, name string) float64 { return snapshotPrefix(n.Registry().Snapshot(), name) }
	waitFor(t, 5*time.Second, func() bool { return counter(nodes[0], "terradir_membership_probes_total") >= 20 })
	start(1)
	waitFor(t, 5*time.Second, func() bool { return counter(nodes[0], "terradir_membership_acks_total") > 0 })
}

// TestLocalStartWhileProbed is TestTCPStartWhileProbed in process:
// NewLocalCluster starts its nodes one after another, so the first ones
// probe the rest, and deliver into them, before those have started.
func TestLocalStartWhileProbed(t *testing.T) {
	proto := membership.Options{
		ProbeInterval:    100 * time.Microsecond,
		SuspicionTimeout: time.Minute,
	}
	c := startLocal(t, 16, func(o *LocalClusterOptions) { o.Node.Membership = inProcessMembership(16, proto) })
	last := c.Node(c.Servers() - 1)
	waitFor(t, 5*time.Second, func() bool {
		return snapshotPrefix(last.Registry().Snapshot(), "terradir_membership_acks_total") > 0
	})
}

// ownedByServer returns a node owned by the given server.
func ownedByServer(t *testing.T, owner []core.ServerID, s core.ServerID) core.NodeID {
	t.Helper()
	for nd, o := range owner {
		if o == s {
			return core.NodeID(nd)
		}
	}
	t.Fatalf("server %d owns nothing", s)
	return 0
}

// stallListener accepts connections and never reads from them, emulating a
// live-but-wedged peer whose socket buffers eventually fill.
type stallListener struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newStallListener(t *testing.T) *stallListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stallListener{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
		}
	}()
	t.Cleanup(s.close)
	return s
}

func (s *stallListener) close() {
	s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.mu.Unlock()
}

// bigMsg builds a message whose encoded frame is large enough that a few of
// them overflow kernel socket buffers, forcing writes to actually block.
func bigMsg(n int) core.Message {
	return &core.DataReply{ReqID: 1, Node: 1, OK: true, Data: make([]byte, n)}
}

func TestTCPPeerStallDoesNotBlockSend(t *testing.T) {
	t.Parallel() // it waits out writeTimeout
	// One peer accepts but never reads: Sends to it must return immediately
	// (bounded queue + writer goroutine absorb the stall) and lookups through
	// the healthy peer must keep completing. The synchronous transport fails
	// this test: Send blocks inside net.Conn.Write holding the conn lock.
	nodes, transports, addrs := startTCPPair(t, TCPTransportOptions{})
	stall := newStallListener(t)
	addrs[2] = stall.ln.Addr().String()

	start := time.Now()
	for i := 0; i < 40; i++ {
		if err := transports[0].Send(0, 2, bigMsg(256<<10)); err != nil {
			t.Fatalf("send %d to stalled peer errored: %v", i, err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("40 sends to a stalled peer took %v; Send must not block", d)
	}

	// Lookups through the other (healthy) peer complete while the stalled
	// peer's writer is wedged against its deadline.
	tree := nodes[0].tree
	owner := Assign(tree, 2, 7)
	remote := ownedByServer(t, owner, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		res, err := nodes[0].Lookup(ctx, remote)
		if err != nil || !res.OK {
			t.Fatalf("lookup %d through healthy peer: %v %+v", i, err, res)
		}
	}

	// The stall must be visible in the counters: the bounded queue evicted
	// oldest frames and/or writes died on the deadline.
	deadline := time.Now().Add(writeTimeout + 3*time.Second)
	for {
		s := transports[0].Stats()
		if s.QueueDrops > 0 || s.WriteErrors > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no overflow or write-deadline evidence in stats: %+v", s)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTCPQueueOverflowDropsOldest(t *testing.T) {
	// With no listener at the destination the writer can never drain, so a
	// flood of eight queues' worth must evict all but the newest.
	addrs := map[core.ServerID]string{}
	tr, err := NewTCPTransportOpts(0, "127.0.0.1:0", addrs, TCPTransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// A dead address: grab a port, then close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	addrs[1] = dead

	const n = 8 * queueDepth
	for i := 0; i < n; i++ {
		if err := tr.Send(0, 1, &core.LoadProbeMsg{Session: uint64(i), From: 0}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	s := tr.Stats()
	if s.Enqueued != n {
		t.Fatalf("enqueued = %d, want %d", s.Enqueued, n)
	}
	// At most one queue's worth is queued and one more in flight with the
	// writer; everything else was evicted.
	if s.QueueDrops < n-2*queueDepth {
		t.Fatalf("queue drops = %d, want >= %d (drop-oldest overflow)", s.QueueDrops, n-2*queueDepth)
	}
	if s.QueueDepth > queueDepth {
		t.Fatalf("queue depth = %d exceeds bound %d", s.QueueDepth, queueDepth)
	}
	// The writer must be dialing (and failing) with backoff, not spinning.
	waitFor(t, 3*time.Second, func() bool { return tr.Stats().DialErrors > 0 })
}

func TestTCPSendOversizedMessage(t *testing.T) {
	addrs := map[core.ServerID]string{}
	tr, err := NewTCPTransport(0, "127.0.0.1:0", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	addrs[1] = tr.Addr()
	err = tr.Send(0, 1, bigMsg(wire.MaxFrame+1))
	if err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestTCPSendAfterCloseErrors(t *testing.T) {
	tr, err := NewTCPTransport(0, "127.0.0.1:0", map[core.ServerID]string{1: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, 1, &core.LoadProbeMsg{Session: 1, From: 0}); err == nil {
		t.Fatal("send on closed transport succeeded")
	}
	// Close is idempotent.
	_ = tr.Close()
}

func TestTCPListenerRestartMidTraffic(t *testing.T) {
	// Kill the receiving peer's listener while traffic flows, restart it on
	// the same port, and verify the sender's writer redials and resumes
	// without any new Send-side plumbing.
	nodes, transports, _ := startTCPPair(t, TCPTransportOptions{})
	tree := nodes[0].tree
	owner := Assign(tree, 2, 7)
	remote := ownedByServer(t, owner, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if res, err := nodes[0].Lookup(ctx, remote); err != nil || !res.OK {
		t.Fatalf("warm lookup: %v %+v", err, res)
	}

	// Take peer 1 down mid-traffic and generate sends into the outage so the
	// writer observes broken connections and failed dials.
	addr1 := transports[1].Addr()
	nodes[1].Stop()
	transports[1].Close()
	for i := 0; i < 5; i++ {
		_ = transports[0].Send(0, 1, &core.LoadProbeMsg{Session: uint64(i), From: 0})
		time.Sleep(20 * time.Millisecond)
	}

	// Restart peer 1 on the same address.
	tr1b, err := NewTCPTransport(1, addr1, map[core.ServerID]string{0: transports[0].Addr(), 1: addr1})
	if err != nil {
		t.Fatalf("rebind %s: %v", addr1, err)
	}
	defer tr1b.Close()
	ownedBy := make([][]core.NodeID, 2)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	n1b, err := NewNode(1, tree, ownedBy[1], func(nd core.NodeID) core.ServerID { return owner[nd] }, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	StartTCPNode(n1b, tr1b)
	defer n1b.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := nodes[0].Lookup(ctx, remote)
		if err == nil && res.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("traffic never resumed after listener restart: %v %+v", err, res)
		}
		time.Sleep(50 * time.Millisecond)
	}
	s := transports[0].Stats()
	if s.Redials == 0 {
		t.Fatalf("sender never redialed: %+v", s)
	}
}

func TestTCPCorruptFrameCounted(t *testing.T) {
	nodes, transports, _ := startTCPPair(t, TCPTransportOptions{})
	_ = nodes
	// Dial the transport's listener raw and feed it garbage two ways.
	// 1) A well-framed but undecodable payload: counted, connection kept.
	c, err := net.Dial("tcp", transports[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := wire.WriteFrame(c, []byte{0xFF, 0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return transports[0].Stats().CorruptFrames == 1 })
	// The connection survives a decode failure: a valid frame still lands.
	valid, err := wire.Encode(&core.LoadProbeMsg{Session: 9, From: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(c, valid); err != nil {
		t.Fatal(err)
	}

	// 2) A corrupt length prefix (> MaxFrame): counted as corruption and the
	// connection is torn down (stream cannot be resynced).
	c2, err := net.Dial("tcp", transports[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return transports[0].Stats().CorruptFrames == 2 })

	// 3) A half-written header then a hard close: a connection error.
	c3, err := net.Dial("tcp", transports[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Write([]byte{0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	c3.Close()
	waitFor(t, 3*time.Second, func() bool { return transports[0].Stats().ConnErrors >= 1 })
}

func TestNodeTransportStats(t *testing.T) {
	nodes, _, _ := startTCPPair(t, TCPTransportOptions{})
	tree := nodes[0].tree
	owner := Assign(tree, 2, 7)
	remote := ownedByServer(t, owner, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if res, err := nodes[0].Lookup(ctx, remote); err != nil || !res.OK {
		t.Fatalf("lookup: %v %+v", err, res)
	}
	if _, ok := nodes[0].TransportStats(); !ok {
		t.Fatal("TCP transport exports no stats")
	}
	// The sender counts a frame after its write(2) returns, and the peer may
	// answer before that: wait for the counter rather than read it once.
	waitFor(t, 3*time.Second, func() bool {
		s, _ := nodes[0].TransportStats()
		return s.Enqueued > 0 && s.Sent > 0 && s.Dials > 0
	})
	if snap := nodes[0].Snapshot(); snap.Transport.Sent == 0 {
		t.Fatalf("snapshot misses transport stats: %+v", snap.Transport)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertConserved checks the transport's message-conservation invariant:
// every message accepted into an outbound queue is eventually written,
// dropped, or still queued — and counted exactly once.
func assertConserved(t *testing.T, tr *TCPTransport) {
	t.Helper()
	s := tr.Stats()
	if got := s.Sent + s.QueueDrops + s.WriteErrors + uint64(s.QueueDepth); got != s.Enqueued {
		t.Errorf("conservation violated: Enqueued=%d but Sent+QueueDrops+WriteErrors+QueueDepth=%d (%+v)",
			s.Enqueued, got, s)
	}
}

func TestTCPConservationAfterClose(t *testing.T) {
	// A live pair exchanging traffic, then closed: after Close every accepted
	// message must be accounted for and no frames may remain queued (the
	// writers drain and count abandoned queues on exit).
	nodes, transports, _ := startTCPPair(t, TCPTransportOptions{})
	dest := ownedByServer(t, Assign(testTree(), 2, 7), 1)
	for i := 0; i < 50; i++ {
		if _, err := nodes[0].Lookup(context.Background(), dest); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	nodes[0].Stop()
	nodes[1].Stop()
	for _, tr := range transports {
		tr.Close() // waits for writers, so drainAbandoned has run
		if d := tr.Stats().QueueDepth; d != 0 {
			t.Errorf("queue depth %d after Close; abandoned frames uncounted", d)
		}
		assertConserved(t, tr)
	}
}

func TestTCPConservationDeadPeerFlood(t *testing.T) {
	// Flooding a peer that refuses connections exercises the overflow-evict
	// path and the close-with-batch-in-flight path: the batch a writer holds
	// while dialing is off the queue, so Close must count it as dropped
	// rather than letting it vanish between QueueDepth and QueueDrops.
	_, transports, addrs := startTCPPair(t, TCPTransportOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // connection refused from now on
	addrs[core.ServerID(9)] = deadAddr
	tr := transports[0]
	for i := 0; i < 4*queueDepth; i++ {
		if err := tr.Send(0, 9, bigMsg(64)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return tr.Stats().QueueDrops > 0 })
	tr.Close()
	if d := tr.Stats().QueueDepth; d != 0 {
		t.Errorf("queue depth %d after Close", d)
	}
	assertConserved(t, tr)
	if s := tr.Stats(); s.Sent != 0 {
		t.Errorf("sent %d frames to a refused address", s.Sent)
	}
}

func TestTCPConservationSetAddrRetire(t *testing.T) {
	// SetAddr retires the old sender with frames still queued; those frames
	// leave the peers map (and thus QueueDepth) with it, so retirement must
	// move them into QueueDrops. A Send racing the retirement lands on the
	// drained sender and must count its own frame.
	_, transports, addrs := startTCPPair(t, TCPTransportOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	addrs[core.ServerID(9)] = deadAddr
	tr := transports[0]
	for i := 0; i < 32; i++ {
		if err := tr.Send(0, 9, bigMsg(64)); err != nil {
			t.Fatal(err)
		}
	}
	// Grab the live sender, then retire it via an address change and push
	// onto the retired sender directly — the deterministic version of a Send
	// racing SetAddr.
	tr.mu.Lock()
	p := tr.peers[9]
	tr.mu.Unlock()
	if p == nil {
		t.Fatal("no sender for peer 9")
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead2 := ln2.Addr().String()
	ln2.Close()
	tr.SetAddr(9, dead2)
	waitFor(t, 3*time.Second, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.retired
	})
	before := tr.Stats().QueueDrops
	tr.ctr.enqueued.Add(1)
	if dropped := p.push([]byte{1}); dropped != 1 {
		t.Errorf("push on retired sender returned %d drops, want 1", dropped)
	} else {
		tr.ctr.queueDrops.Add(uint64(dropped))
	}
	if after := tr.Stats().QueueDrops; after != before+1 {
		t.Errorf("queue drops %d -> %d, want +1", before, after)
	}
	tr.Close()
	if d := tr.Stats().QueueDepth; d != 0 {
		t.Errorf("queue depth %d after Close", d)
	}
	assertConserved(t, tr)
}
