// Livecluster: boot a real multi-process-style TerraDir overlay — eight
// peers, each with its own goroutine event loop, talking TCP over loopback
// with length-prefixed binary protocol frames — then drive a hot-spot
// through it and watch live replication happen on actual sockets.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"terradir"
	"terradir/internal/core"
	"terradir/internal/overlay"
)

func main() {
	const servers = 8
	ns := terradir.NewBalancedNamespace(2, 9) // 511 nodes
	owner := terradir.AssignOwners(ns, servers, 5)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, servers)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}

	// Bind all listeners first so every peer knows every address.
	addrs := map[core.ServerID]string{}
	transports := make([]*terradir.TCPTransport, servers)
	for i := 0; i < servers; i++ {
		tr, err := overlay.NewTCPTransport(core.ServerID(i), "127.0.0.1:0", addrs)
		if err != nil {
			log.Fatal(err)
		}
		transports[i] = tr
		addrs[core.ServerID(i)] = tr.Addr()
	}
	nodes := make([]*terradir.OverlayNode, servers)
	cfg := terradir.DefaultConfig()
	cfg.ReplicationCooldown = 0.05
	for i := 0; i < servers; i++ {
		n, err := overlay.NewNode(core.ServerID(i), ns, ownedBy[i], ownerOf, terradir.NodeOptions{
			Seed:         uint64(i) + 1,
			Config:       cfg,
			ServiceDelay: time.Millisecond, // give queries real weight
			QueueCap:     256,
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = n
		overlay.StartTCPNode(n, transports[i])
		fmt.Printf("peer %d listening on %s, owns %d nodes\n", i, transports[i].Addr(), len(ownedBy[i]))
	}
	defer func() {
		for i := range nodes {
			nodes[i].Stop()
			transports[i].Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A few ordinary lookups over real TCP.
	fmt.Println("\nordinary lookups over TCP:")
	for i := 0; i < 4; i++ {
		dest := terradir.NodeID((i*127 + 33) % ns.Len())
		res, err := nodes[i%servers].Lookup(ctx, dest)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s ok=%v hops=%d hosts=%v %.1fms\n",
			ns.Name(dest), res.OK, res.Hops, res.Hosts, float64(res.Latency)/float64(time.Millisecond))
	}

	// Hammer one node from every peer: the owner's measured load crosses
	// Thigh and it ships replicas of the hot node to colder peers.
	hot := terradir.NodeID(300)
	hotOwner := owner[hot]
	fmt.Printf("\nhammering %s (owned by peer %d) from all peers...\n", ns.Name(hot), hotOwner)
	var wg sync.WaitGroup
	for g := 0; g < servers; g++ {
		if core.ServerID(g) == hotOwner {
			continue
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				_, _ = nodes[g].Lookup(ctx, hot)
			}
		}(g)
	}
	wg.Wait()
	time.Sleep(300 * time.Millisecond)

	replicas := 0
	var hosts []core.ServerID
	for i := 0; i < servers; i++ {
		nodes[i].Stop() // stop loops so peer state can be inspected safely
	}
	for i := 0; i < servers; i++ {
		if nodes[i].Peer().HostsReplica(hot) {
			replicas++
			hosts = append(hosts, core.ServerID(i))
		}
	}
	var tot terradir.TransportStats
	for i := 0; i < servers; i++ {
		if st, ok := nodes[i].TransportStats(); ok {
			tot.Enqueued += st.Enqueued
			tot.Sent += st.Sent
			tot.QueueDrops += st.QueueDrops
			tot.Dials += st.Dials
			tot.Redials += st.Redials
		}
	}
	fmt.Printf("\ntransport totals: %d frames enqueued, %d sent, %d queue drops, %d dials (%d redials)\n",
		tot.Enqueued, tot.Sent, tot.QueueDrops, tot.Dials, tot.Redials)

	fmt.Printf("\nlive replication result: %s now has %d soft-state replicas on peers %v\n",
		ns.Name(hot), replicas, hosts)
	if replicas == 0 {
		fmt.Println("(no replicas — try a slower machine or raise the per-query service delay)")
	} else {
		fmt.Println("the routing load of the hot node has been shed onto colder peers — the")
		fmt.Println("same adaptive protocol the simulator evaluates, running on real sockets.")
	}
}
