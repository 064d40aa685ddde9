// Command terradir-gw runs one stateless TerraDir gateway: the edge tier
// that terminates client connections (HTTP/JSON and the binary wire
// protocol) and multiplexes them onto a pool of upstream peers, with
// request coalescing, hedged replica reads, and per-tenant admission
// control.
//
// A gateway shares the deployment's deterministic namespace
// (-namespace/-seed must match the peers) but is not a peer itself: it owns
// nothing, and peers see it only as a reply route.
//
// Example, in front of the 3-node deployment from cmd/terradird:
//
//	terradir-gw -servers 3 -peers :7100,:7101,:7102 -http :8200 -wire :7200
//	curl 'http://localhost:8200/lookup?name=/n0/n1/n0'
//
// SIGTERM drains gracefully: /healthz flips to 503 (load-balancer
// ejection), new requests are refused with Retry-After, in-flight ones
// finish.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"terradir"
	"terradir/internal/core"
	"terradir/internal/gateway"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
)

func main() {
	var (
		ord      = flag.Int("ord", 0, "gateway client ordinal (distinct per gateway and per wire client in a deployment)")
		servers  = flag.Int("servers", 1, "total number of upstream peers")
		peerList = flag.String("peers", "", "comma-separated peer addresses, index = server ID (required)")
		nsKind   = flag.String("namespace", "balanced:2:10", "namespace spec: 'balanced:<arity>:<levels>' or 'fs:<nodes>' (must match peers)")
		seed     = flag.Uint64("seed", 1, "deployment seed (must match peers)")

		httpAddr = flag.String("http", ":8200", "HTTP/JSON listen address; empty disables")
		wireAddr = flag.String("wire", ":7200", "binary wire-protocol listen address (also the upstream transport)")

		rate = flag.Float64("rate", 0, "per-tenant admission rate, requests/sec, burst max(rate,1) (0 = unlimited)")
	)
	flag.Parse()

	tree, err := namespace.ParseSpec(*nsKind, *seed)
	if err != nil {
		fatal(err)
	}
	if *servers < 1 {
		fatal(fmt.Errorf("-servers must be >= 1 (got %d)", *servers))
	}
	if *peerList == "" {
		fatal(fmt.Errorf("-peers is required"))
	}
	addrs := map[core.ServerID]string{}
	var peers []core.ServerID
	for i, a := range strings.Split(*peerList, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			fatal(fmt.Errorf("-peers entry %d is empty", i))
		}
		addrs[core.ServerID(i)] = a
		peers = append(peers, core.ServerID(i))
	}
	if len(peers) != *servers {
		fatal(fmt.Errorf("-peers lists %d addresses for -servers %d", len(peers), *servers))
	}

	self := core.ClientID(*ord)
	transport, err := overlay.NewTCPTransportOpts(self, *wireAddr, addrs,
		terradir.TCPTransportOptions{ClientRole: true, Seed: *seed + uint64(*ord) + 1})
	if err != nil {
		fatal(err)
	}

	// Probe each peer with a node it owns under the deployment's initial
	// assignment, so probe success depends only on that peer being alive
	// (not on the rest of the overlay routing for it).
	owner := terradir.AssignOwners(tree, *servers, *seed)
	probeDest := make(map[core.ServerID]core.NodeID, *servers)
	for nd, s := range owner {
		if _, ok := probeDest[s]; !ok {
			probeDest[s] = core.NodeID(nd)
		}
	}

	gw, err := gateway.New(gateway.Options{
		Tree:  tree,
		Self:  self,
		Peers: peers,
		Wire:  transport,
		ProbeDest: func(s core.ServerID) core.NodeID {
			if nd, ok := probeDest[s]; ok {
				return nd
			}
			return tree.Root()
		},
		AdmissionRate: *rate,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("terradir-gw: wire surface + upstream transport on %s (%d peers)\n", transport.Addr(), *servers)
	if *httpAddr != "" {
		bound, err := gw.StartHTTP(*httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("terradir-gw: http surface on %s (/lookup /healthz /metrics)\n", bound)
	}
	if *rate > 0 {
		fmt.Printf("terradir-gw: admission control: %.1f req/s per tenant (burst %.0f)\n", *rate, max(*rate, 1))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("terradir-gw: draining")
	start := time.Now()
	gw.Drain()
	fmt.Printf("terradir-gw: drained in %s, shutting down\n", time.Since(start).Round(time.Millisecond))
	gw.Close()
	transport.Close()
	gw.Registry().DumpNonZero(os.Stdout, "terradir-gw")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "terradir-gw: %v\n", err)
	os.Exit(1)
}
