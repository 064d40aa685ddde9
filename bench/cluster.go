package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/gateway"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
)

// clusterSeed fixes the node-to-server assignment and the nodes' RNG streams.
// The system under test is the same on every run; only the request stream
// follows -seed.
const clusterSeed = 1

// cluster is a booted set of overlay nodes plus whatever fronts them.
type cluster struct {
	tree  *namespace.Tree
	nodes []*overlay.Node
	owner []core.ServerID
	gw    *gateway.Gateway
	// data fetches payloads (in-process clusters only).
	data *dataClient
	// tcp holds the peers' transports (gw-tcp-zipf only), for their counters.
	tcp []*overlay.TCPTransport
	// stops run in reverse order on stop.
	stops []func()
}

func (c *cluster) stop() {
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
	c.stops = nil
}

// hostsNode reports whether server s hosts nd right now, read inside s's
// event loop.
func (c *cluster) hostsNode(s core.ServerID, nd core.NodeID) bool {
	if s < 0 || int(s) >= len(c.nodes) {
		return false
	}
	hosts := false
	c.nodes[s].Inspect(func(p *core.Peer) {
		if p.Hosts(nd) {
			hosts = true
		}
	})
	return hosts
}

// ownedBy inverts an assignment into per-server owned lists.
func ownedBy(owner []core.ServerID, servers int) [][]core.NodeID {
	out := make([][]core.NodeID, servers)
	for nd, s := range owner {
		out[s] = append(out[s], core.NodeID(nd))
	}
	return out
}

// newLocalCluster is overlay.NewLocalCluster with two additions the library
// constructor has no room for: an optional tap around the transport (the
// traced pass) and per-node options (persistence directories). Seeds follow
// NewLocalCluster so the cluster is the one an operator would get from it.
func newLocalCluster(tree *namespace.Tree, servers int, tap *tapTransport, nodeOpts func(i int) overlay.Options) (*cluster, error) {
	c := &cluster{tree: tree, owner: overlay.Assign(tree, servers, clusterSeed)}
	lt := overlay.NewLocalTransport(0)
	c.data = &dataClient{inner: lt, pending: map[uint64]chan *core.DataReply{}}
	var send overlay.Transport = c.data
	if tap != nil {
		tap.inner = c.data
		send = tap
	}
	c.data.out = send
	c.stops = append(c.stops, func() { lt.Close() })
	ownerOf := func(nd core.NodeID) core.ServerID { return c.owner[nd] }
	owned := ownedBy(c.owner, servers)
	for i := 0; i < servers; i++ {
		var o overlay.Options
		if nodeOpts != nil {
			o = nodeOpts(i)
		}
		o.Seed = clusterSeed + uint64(i)*7919
		n, err := overlay.NewNode(core.ServerID(i), tree, owned[i], ownerOf, o)
		if err != nil {
			c.stop()
			return nil, err
		}
		n.SetTransport(send)
		lt.Register(n)
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// dataClient is the second step of the paper's two-step retrieval — after the
// lookup, ask a host from the node's map for the payload — done by an edge
// client of the benchmark's own instead of by Node.Get. At the seed commit
// Node.Get answers from the calling server's own memory when that server is
// among the hosts, reading the peer's hosted map outside its event loop while
// the loop writes it (cold loads, evictions, replica installs). The Go runtime
// ends a process that it catches at it ("concurrent map read and map write",
// exit 2): rarely, but `go build -race` reports the race on every
// durable-mixed run that calls Node.Get (README, "Findings"). The client sits
// in the transport chain under the reserved client address, so every fetch is
// one DataRequest handled inside the host's loop and one DataReply back.
type dataClient struct {
	inner   overlay.Transport // replies for other addresses pass through
	out     overlay.Transport // the chain's outer end, which requests enter like any node's
	next    atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]chan *core.DataReply
}

// dataClientID is the client's address, from the range the overlay reserves
// for edge clients (never a peer, never in a load or ownership table).
var dataClientID = core.ClientID(0)

func (d *dataClient) Send(from, to core.ServerID, m core.Message) error {
	if to != dataClientID {
		return d.inner.Send(from, to, m)
	}
	if rep, ok := m.(*core.DataReply); ok {
		d.mu.Lock()
		ch := d.pending[rep.ReqID]
		delete(d.pending, rep.ReqID)
		d.mu.Unlock()
		if ch != nil {
			ch <- rep
		}
	}
	return nil
}

func (d *dataClient) Close() error { return d.inner.Close() }

// fetch asks the hosts in turn, as Node.Get does, until one returns the
// payload: only the owner holds it, routing replicas answer that they do not.
func (d *dataClient) fetch(ctx context.Context, nd core.NodeID, hosts []core.ServerID) ([]byte, error) {
	err := fmt.Errorf("node %d has no hosts", nd)
	for _, h := range hosts {
		id := d.next.Add(1)
		ch := make(chan *core.DataReply, 1)
		d.mu.Lock()
		d.pending[id] = ch
		d.mu.Unlock()
		if err = d.out.Send(dataClientID, h, &core.DataRequest{ReqID: id, Node: nd, From: dataClientID}); err == nil {
			select {
			case rep := <-ch:
				if rep.OK {
					return rep.Data, nil
				}
				err = fmt.Errorf("server %d holds no data for node %d", h, nd)
				continue
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		d.mu.Lock()
		delete(d.pending, id)
		d.mu.Unlock()
	}
	return nil, err
}

// start launches every node's event loop. Split from construction because
// data seeding (Node.StoreData) must precede it.
func (c *cluster) start() {
	for _, n := range c.nodes {
		n.Start()
		c.stops = append(c.stops, n.Stop)
	}
}

// newGatewayCluster boots `servers` peers on loopback TCP and one gateway on
// a client-role transport in front of them.
func newGatewayCluster(tree *namespace.Tree, servers int, tap *tapTransport) (*cluster, error) {
	c := &cluster{tree: tree, owner: overlay.Assign(tree, servers, clusterSeed)}
	ownerOf := func(nd core.NodeID) core.ServerID { return c.owner[nd] }
	owned := ownedBy(c.owner, servers)
	addrs := map[core.ServerID]string{}
	var peers []core.ServerID
	for i := 0; i < servers; i++ {
		id := core.ServerID(i)
		tr, err := overlay.NewTCPTransportOpts(id, "127.0.0.1:0", map[core.ServerID]string{},
			overlay.TCPTransportOptions{Seed: clusterSeed + uint64(i)})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.stops = append(c.stops, func() { tr.Close() })
		c.tcp = append(c.tcp, tr)
		addrs[id] = tr.Addr()
		peers = append(peers, id)
	}
	for i, tr := range c.tcp {
		for id, a := range addrs {
			tr.SetAddr(id, a)
		}
		n, err := overlay.NewNode(core.ServerID(i), tree, owned[i], ownerOf,
			overlay.Options{Seed: clusterSeed + uint64(i)})
		if err != nil {
			c.stop()
			return nil, err
		}
		var send overlay.Transport = tr
		if tap != nil {
			send = &tapTransport{inner: tr, tapState: tap.tapState}
		}
		overlay.StartTCPNodeVia(n, tr, send)
		c.stops = append(c.stops, n.Stop)
		c.nodes = append(c.nodes, n)
	}
	gwTr, err := overlay.NewTCPTransportOpts(core.ClientID(0), "127.0.0.1:0", addrs,
		overlay.TCPTransportOptions{ClientRole: true, Seed: clusterSeed + 1000})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.stops = append(c.stops, func() { gwTr.Close() })
	probe := make(map[core.ServerID]core.NodeID, servers)
	for s, l := range owned {
		if len(l) > 0 {
			probe[core.ServerID(s)] = l[0]
		}
	}
	opts := gateway.Options{
		Tree: tree, Self: core.ClientID(0), Peers: peers, Wire: gwTr,
		// A probe must depend on its target alone: aim it at a node the
		// target owns, as terradir-gw does.
		ProbeDest: func(s core.ServerID) core.NodeID { return probe[s] },
	}
	if tap != nil {
		opts.Send = &tapTransport{inner: gwTr, tapState: tap.tapState}
	}
	gw, err := gateway.New(opts)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.stops = append(c.stops, gw.Close)
	c.gw = gw
	// Ready means the gateway's first round of liveness probes (default: half
	// a second after it starts) has been answered. A peer can answer a client
	// only over a connection the client opened to it, and the gateway opens
	// each on first use: at the seed commit a lookup that is resolved by a
	// peer the gateway has not yet dialled loses its answer and times out
	// after 3 s (README, "Findings"). Whether one of the first lookups meets
	// that depends on the seed, so traffic waits, as it would behind a load
	// balancer's readiness check. Before traffic every frame the gateway's
	// transport reads is a probe's answer.
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for gwTr.Stats().FramesRead < uint64(servers) {
		select {
		case <-ctx.Done():
			c.stop()
			return nil, fmt.Errorf("gateway heard from %d of %d peers: %w", gwTr.Stats().FramesRead, servers, ctx.Err())
		case <-tick.C:
		}
	}
	return c, nil
}

// hotCacheShare is durable-mixed's residency: a server keeps one in this many
// of its nodes in memory.
const hotCacheShare = 10

// durableOpts is the persistence configuration of durable-mixed: a hot cache
// of a tenth of each server's partition, and snapshots often enough that
// several snapshot/index cycles (and the evictions they enable) complete
// inside one measured run.
func durableOpts(dir string, i, ownedPerServer int, snapshotEvery time.Duration) overlay.Options {
	return overlay.Options{Persist: &overlay.PersistOptions{
		Dir:              filepath.Join(dir, fmt.Sprintf("node%d", i)),
		SnapshotInterval: snapshotEvery,
		HotCacheEntries:  ownedPerServer / hotCacheShare,
	}}
}

// snapshotsWritten returns how many snapshots each node has written since it
// booted, from its registry.
func (c *cluster) snapshotsWritten() []float64 {
	out := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = sumSeries(n.Registry().Snapshot(), "terradir_persist_snapshots_total")
	}
	return out
}

// waitSnapshots blocks until node i has written want[i] snapshots.
func (c *cluster) waitSnapshots(ctx context.Context, want []float64) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		behind := -1
		for i, got := range c.snapshotsWritten() {
			if got < want[i] {
				behind = i
			}
		}
		if behind < 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for server %d's snapshot: %w", behind, ctx.Err())
		case <-tick.C:
		}
	}
}
