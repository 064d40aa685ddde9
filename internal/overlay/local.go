package overlay

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
)

// LocalTransport delivers messages between nodes of one process by direct
// inbox injection, optionally after a simulated network delay. Message
// values follow the core ownership-transfer conventions, so no copying is
// needed between goroutines. A delayed message gets its own timer, as
// FaultTransport's latency does.
type LocalTransport struct {
	nodes  []*Node
	delay  time.Duration
	closed atomic.Bool
}

// NewLocalTransport creates a transport over the given (positionally
// ID-ordered) nodes with an optional per-message delay.
func NewLocalTransport(delay time.Duration) *LocalTransport {
	return &LocalTransport{delay: delay}
}

// Register adds a node; nodes must be registered in server-ID order.
func (t *LocalTransport) Register(n *Node) { t.nodes = append(t.nodes, n) }

// Send implements Transport.
func (t *LocalTransport) Send(from, to core.ServerID, m core.Message) error {
	if int(to) < 0 || int(to) >= len(t.nodes) {
		return fmt.Errorf("overlay: no such server %d", to)
	}
	dst := t.nodes[to]
	if t.delay <= 0 {
		dst.Deliver(m)
		return nil
	}
	time.AfterFunc(t.delay, func() {
		if !t.closed.Load() { // in-flight loss after close; soft state tolerates it
			dst.Deliver(m)
		}
	})
	return nil
}

// Close implements Transport: delayed messages still in flight are dropped,
// which soft state tolerates. Idempotent.
func (t *LocalTransport) Close() error {
	t.closed.Store(true)
	return nil
}

// LocalCluster is an in-process live overlay: one goroutine per server over
// a LocalTransport. It is the quickest way to run the protocol for real
// (examples, integration tests) without sockets.
type LocalCluster struct {
	tree      *namespace.Tree
	nodes     []*Node
	owner     []core.ServerID
	transport *LocalTransport
	fault     *FaultTransport
}

// LocalClusterOptions configures NewLocalCluster.
type LocalClusterOptions struct {
	// Servers is the number of live peers (required).
	Servers int
	// Seed fixes ownership assignment and per-node RNG streams (default 1).
	Seed uint64
	// NetDelay delays every message by this much (default 0).
	NetDelay time.Duration
	// Node configures every peer. Its Seed is replaced per peer, and so is
	// its Membership's protocol seed when it runs membership.
	Node Options
	// Fault, when non-nil, wraps the cluster's transport in a FaultTransport
	// with these options (retrieve it with Fault for runtime fault control).
	Fault *FaultOptions
}

// NewLocalCluster builds and starts a local overlay over the namespace.
func NewLocalCluster(tree *namespace.Tree, opts LocalClusterOptions) (*LocalCluster, error) {
	if tree == nil {
		return nil, fmt.Errorf("overlay: nil namespace")
	}
	if opts.Servers < 1 {
		return nil, fmt.Errorf("overlay: Servers = %d", opts.Servers)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	c := &LocalCluster{
		tree:      tree,
		owner:     Assign(tree, opts.Servers, opts.Seed),
		transport: NewLocalTransport(opts.NetDelay),
	}
	var send Transport = c.transport
	if opts.Fault != nil {
		c.fault = NewFaultTransport(c.transport, *opts.Fault)
		send = c.fault
	}
	ownerOf := func(nd core.NodeID) core.ServerID { return c.owner[nd] }
	ownedBy := make([][]core.NodeID, opts.Servers)
	for nd, s := range c.owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	for i := 0; i < opts.Servers; i++ {
		nodeOpts := opts.Node
		nodeOpts.Seed = opts.Seed + uint64(i)*7919
		if m := opts.Node.Membership; m != nil {
			mo := *m
			mo.Protocol.Seed = opts.Seed + uint64(i)*104729 + 1
			nodeOpts.Membership = &mo
		}
		n, err := NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf, nodeOpts)
		if err != nil {
			c.StopAll()
			return nil, err
		}
		n.SetTransport(send)
		c.nodes = append(c.nodes, n)
		c.transport.Register(n)
	}
	for _, n := range c.nodes {
		n.Start()
	}
	return c, nil
}

// Tree returns the namespace.
func (c *LocalCluster) Tree() *namespace.Tree { return c.tree }

// Servers returns the server count.
func (c *LocalCluster) Servers() int { return len(c.nodes) }

// Node returns server i.
func (c *LocalCluster) Node(i int) *Node { return c.nodes[i] }

// OwnerOf returns a node's initial owner.
func (c *LocalCluster) OwnerOf(nd core.NodeID) core.ServerID { return c.owner[nd] }

// Fault returns the cluster's fault-injection wrapper, or nil when the
// cluster was built without LocalClusterOptions.Fault.
func (c *LocalCluster) Fault() *FaultTransport { return c.fault }

// KillServer fail-stops server i: its event loop halts and (when the cluster
// has a FaultTransport) all messages to and from it are dropped, mirroring
// the simulator's FailServer. Soft state on the survivors is untouched and
// must route around the loss.
func (c *LocalCluster) KillServer(i int) {
	if i < 0 || i >= len(c.nodes) {
		return
	}
	if c.fault != nil {
		c.fault.Crash(core.ServerID(i))
	}
	c.nodes[i].Stop()
}

// Lookup resolves dest starting from the given source server.
func (c *LocalCluster) Lookup(ctx context.Context, source int, dest core.NodeID) (LookupResult, error) {
	if source < 0 || source >= len(c.nodes) {
		return LookupResult{}, fmt.Errorf("overlay: no such server %d", source)
	}
	return c.nodes[source].Lookup(ctx, dest)
}

// LookupName resolves a fully qualified name from the given source server.
func (c *LocalCluster) LookupName(ctx context.Context, source int, name string) (LookupResult, error) {
	if source < 0 || source >= len(c.nodes) {
		return LookupResult{}, fmt.Errorf("overlay: no such server %d", source)
	}
	return c.nodes[source].LookupName(ctx, name)
}

// StopAll shuts every node down and closes the transport.
func (c *LocalCluster) StopAll() {
	for _, n := range c.nodes {
		if n != nil {
			n.Stop()
		}
	}
	c.transport.Close()
}

// TotalReplicas sums live replicas across all (stopped or idle) nodes.
// Intended for post-run inspection; while traffic is flowing the value is a
// moving snapshot.
func (c *LocalCluster) TotalReplicas() int {
	total := 0
	for _, n := range c.nodes {
		total += n.ReplicaCount()
	}
	return total
}
