package gateway

import (
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/membership"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
)

// testCluster is a small live TCP overlay the gateway tests front.
type testCluster struct {
	t       *testing.T
	tree    *namespace.Tree
	owner   []core.ServerID
	nodes   []*overlay.Node
	trs     []*overlay.TCPTransport
	faults  []*overlay.FaultTransport
	addrs   map[core.ServerID]string
	peers   []core.ServerID
	stopped []bool
	gwTr    *overlay.TCPTransport // the last startGateway's downstream transport
}

// peerSetup is what a test varies per peer: the capacity one query uses
// (overlay.Options.ServiceCost; 0 is the default) and the latency the peer's
// outbound path adds to every message, its results to the gateway included.
type peerSetup struct {
	serviceCost time.Duration
	latency     time.Duration
}

// startCluster boots n TCP peers (each with its outbound path wrapped in a
// FaultTransport for targeted fault injection). withMembership runs SWIM at
// the churn e2e tests' accelerated probe and suspicion settings — needed
// whenever a test crashes a peer and expects the survivors to keep resolving
// its nodes.
func startCluster(t *testing.T, n int, withMembership bool, setup peerSetup) *testCluster {
	t.Helper()
	c := &testCluster{
		t:       t,
		tree:    namespace.NewBalanced(3, 4),
		addrs:   map[core.ServerID]string{},
		stopped: make([]bool, n),
	}
	c.owner = overlay.Assign(c.tree, n, 7)
	ownerOf := func(nd core.NodeID) core.ServerID { return c.owner[nd] }
	ownedBy := make([][]core.NodeID, n)
	for nd, s := range c.owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	c.trs = make([]*overlay.TCPTransport, n)
	c.faults = make([]*overlay.FaultTransport, n)
	c.nodes = make([]*overlay.Node, n)
	for i := 0; i < n; i++ {
		tr, err := overlay.NewTCPTransportOpts(core.ServerID(i), "127.0.0.1:0",
			map[core.ServerID]string{}, overlay.TCPTransportOptions{Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		c.trs[i] = tr
		c.addrs[core.ServerID(i)] = tr.Addr()
		c.peers = append(c.peers, core.ServerID(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c.trs[i].SetAddr(core.ServerID(j), c.addrs[core.ServerID(j)])
		}
	}
	for i := 0; i < n; i++ {
		c.faults[i] = overlay.NewFaultTransport(c.trs[i], overlay.FaultOptions{Seed: uint64(i) + 1, Latency: setup.latency})
		opts := overlay.Options{Seed: uint64(i) + 1, ServiceCost: setup.serviceCost}
		if withMembership {
			opts.Membership = &overlay.MembershipOptions{
				Protocol: membership.Options{
					ProbeInterval:    50 * time.Millisecond,
					SuspicionTimeout: 250 * time.Millisecond,
					Seed:             uint64(i)*31 + 1,
				},
				Servers:  n,
				SelfAddr: c.trs[i].Addr(),
				Peers:    c.peersCopy(),
			}
		}
		nd, err := overlay.NewNode(core.ServerID(i), c.tree, ownedBy[i], ownerOf, opts)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[i] = nd
		overlay.StartTCPNodeVia(nd, c.trs[i], c.faults[i])
	}
	t.Cleanup(func() {
		for i := range c.nodes {
			if !c.stopped[i] {
				c.nodes[i].Stop()
				c.trs[i].Close()
			}
		}
	})
	return c
}

func (c *testCluster) peersCopy() map[core.ServerID]string {
	m := make(map[core.ServerID]string, len(c.addrs))
	for k, v := range c.addrs {
		m[k] = v
	}
	return m
}

// ownedNode returns a node the given peer owns under the initial assignment.
func (c *testCluster) ownedNode(s core.ServerID) core.NodeID {
	for nd, o := range c.owner {
		if o == s {
			return core.NodeID(nd)
		}
	}
	c.t.Fatalf("server %d owns nothing", s)
	return 0
}

// crash kills peer i abruptly: event loops stop, listener and connections
// close. Nothing is drained — exactly a process death.
func (c *testCluster) crash(i int) {
	c.stopped[i] = true
	c.nodes[i].Stop()
	c.trs[i].Close()
}

// startGateway wires a gateway in front of the cluster. tweak (may be nil)
// adjusts the options before New.
func (c *testCluster) startGateway(tweak func(*Options)) *Gateway {
	c.t.Helper()
	gwTr, err := overlay.NewTCPTransportOpts(core.ClientID(0), "127.0.0.1:0",
		c.peersCopy(), overlay.TCPTransportOptions{ClientRole: true, Seed: 99})
	if err != nil {
		c.t.Fatal(err)
	}
	c.gwTr = gwTr
	opts := Options{
		Tree:      c.tree,
		Self:      core.ClientID(0),
		Peers:     c.peers,
		Wire:      gwTr,
		ProbeDest: c.ownedNode,
	}
	if tweak != nil {
		tweak(&opts)
	}
	g, err := New(opts)
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() {
		g.Close()
		gwTr.Close()
	})
	return g
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}
