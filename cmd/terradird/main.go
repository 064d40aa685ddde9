// Command terradird runs one live TerraDir peer over TCP.
//
// A deployment of N peers shares a deterministic namespace and ownership
// assignment derived from (-namespace, -servers, -seed); every process must
// be launched with identical values plus the full peer address list. Each
// peer additionally serves a line-based client port for lookups (see
// cmd/terradir-cli).
//
// Example 3-node deployment on one machine:
//
//	terradird -id 0 -servers 3 -listen :7100 -client :8100 -peers :7100,:7101,:7102
//	terradird -id 1 -servers 3 -listen :7101 -client :8101 -peers :7100,:7101,:7102
//	terradird -id 2 -servers 3 -listen :7102 -client :8102 -peers :7100,:7101,:7102
//	terradir-cli -addr :8100 /n0/n1/n0
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"terradir"
	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/persist"
	"terradir/internal/telemetry"
)

func main() {
	var (
		id       = flag.Int("id", 0, "this peer's server ID (0-based)")
		servers  = flag.Int("servers", 1, "total number of peers in the deployment")
		listen   = flag.String("listen", ":7100", "peer protocol listen address")
		client   = flag.String("client", ":8100", "client (lookup) listen address; empty disables")
		peerList = flag.String("peers", "", "comma-separated peer addresses, index = server ID")
		nsKind   = flag.String("namespace", "balanced:2:10", "namespace spec: 'balanced:<arity>:<levels>' or 'fs:<nodes>'")
		seed     = flag.Uint64("seed", 1, "deployment seed (must match across peers)")

		faultDrop    = flag.Float64("fault-drop", 0, "inject: drop this fraction of outbound messages")
		faultLatency = flag.Duration("fault-latency", 0, "inject: delay every outbound message by this much")

		adminAddr   = flag.String("admin-addr", "", "admin HTTP listen address (/metrics, /debug/vars, /debug/pprof, /trace/<id>); empty disables")
		traceSample = flag.Float64("trace-sample", overlay.DefaultTraceSample, "fraction of lookups initiated here that carry a distributed trace (<= 0 disables)")

		dataDir      = flag.String("data-dir", "", "durability directory: WAL + snapshots of hosted state; empty disables persistence")
		snapInterval = flag.Duration("snapshot-interval", 30*time.Second, "period between hosted-state snapshots (requires -data-dir)")
		walSync      = flag.String("wal-sync", "interval", "WAL fsync policy: always | interval | none")
		cacheEntries = flag.Int("hosted-cache-entries", 0, "cap on resident hosted entries; the rest lives in the on-disk node index (requires -data-dir; 0 = unbounded)")

		join          = flag.String("join", "", "bootstrap off one live peer's address instead of requiring the full -peers list")
		advertise     = flag.String("advertise", "", "address other peers dial to reach this one (default: the bound listen address; set this when -listen is a wildcard)")
		probeInterval = flag.Duration("probe-interval", 0, "membership probe period (0 = default 250ms)")
		suspicion     = flag.Duration("suspicion-timeout", 0, "suspect-to-dead timeout (0 = 4x probe interval)")
		noMembership  = flag.Bool("no-membership", false, "disable the gossip membership subsystem (static deployment)")
	)
	flag.Parse()

	tree, err := namespace.ParseSpec(*nsKind, *seed)
	if err != nil {
		fatal(err)
	}
	// Fail fast on misconfiguration: a bad -id or -peers list would otherwise
	// surface only as silent misrouting at runtime.
	if *servers < 1 {
		fatal(fmt.Errorf("-servers must be >= 1 (got %d)", *servers))
	}
	if *id < 0 || *id >= *servers {
		fatal(fmt.Errorf("-id %d out of range [0,%d) for -servers %d", *id, *servers, *servers))
	}
	addrs := map[core.ServerID]string{}
	if *peerList != "" {
		for i, a := range strings.Split(*peerList, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				fatal(fmt.Errorf("-peers entry %d is empty", i))
			}
			addrs[core.ServerID(i)] = a
		}
	}
	if *join == "" {
		if len(addrs) == 0 {
			fatal(fmt.Errorf("either -peers (full static list) or -join (bootstrap address) is required"))
		}
		if len(addrs) != *servers {
			fatal(fmt.Errorf("-peers lists %d addresses for -servers %d; every server needs exactly one address", len(addrs), *servers))
		}
	} else if len(addrs) != 0 && len(addrs) != *servers {
		fatal(fmt.Errorf("-peers lists %d addresses for -servers %d (with -join, omit -peers or list all)", len(addrs), *servers))
	}

	owner := terradir.AssignOwners(tree, *servers, *seed)
	var owned []core.NodeID
	for nd, s := range owner {
		if s == core.ServerID(*id) {
			owned = append(owned, core.NodeID(nd))
		}
	}
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }

	transport, err := overlay.NewTCPTransportOpts(core.ServerID(*id), *listen, addrs,
		terradir.TCPTransportOptions{Seed: *seed + uint64(*id)})
	if err != nil {
		fatal(err)
	}

	sample := *traceSample
	if sample <= 0 {
		sample = -1 // Options reads 0 as DefaultTraceSample; negative disables
	}
	nodeOpts := overlay.Options{
		Seed:        *seed + uint64(*id)*7919,
		TraceSample: sample,
	}
	if !*noMembership && (*servers > 1 || *join != "") {
		selfAddr := *advertise
		if selfAddr == "" {
			selfAddr = transport.Addr()
		}
		var peers map[core.ServerID]string
		if *join == "" {
			peers = addrs
		}
		nodeOpts.Membership = &overlay.MembershipOptions{
			Protocol: terradir.MembershipProtocolOptions{
				ProbeInterval:    *probeInterval,
				SuspicionTimeout: *suspicion,
				Seed:             *seed + uint64(*id)*104729 + 1,
			},
			Servers:  *servers,
			SelfAddr: selfAddr,
			Peers:    peers,
			JoinAddr: *join,
		}
	}
	if *dataDir == "" && *cacheEntries > 0 {
		fatal(fmt.Errorf("-hosted-cache-entries bounds the hot cache over the on-disk node index and requires -data-dir"))
	}
	if *cacheEntries < 0 {
		fatal(fmt.Errorf("-hosted-cache-entries must be >= 0"))
	}
	if *dataDir != "" {
		// Fail fast on a durability misconfiguration: a peer that silently ran
		// without its WAL would lose state it promised to keep.
		if *snapInterval <= 0 {
			fatal(fmt.Errorf("-snapshot-interval must be > 0 (got %s)", *snapInterval))
		}
		policy, err := persist.ParseSyncPolicy(*walSync)
		if err != nil {
			fatal(err)
		}
		if err := probeWritable(*dataDir); err != nil {
			fatal(fmt.Errorf("-data-dir %s is not writable: %w", *dataDir, err))
		}
		nodeOpts.Persist = &overlay.PersistOptions{
			Dir:              *dataDir,
			SnapshotInterval: *snapInterval,
			SyncPolicy:       policy,
			HotCacheEntries:  *cacheEntries,
		}
	}
	node, err := overlay.NewNode(core.ServerID(*id), tree, owned, ownerOf, nodeOpts)
	if err != nil {
		fatal(err)
	}
	if rs := node.ReplayedState(); rs != nil && rs.HasState() {
		if rs.Indexed {
			fmt.Printf("terradird: indexed restart, %d records on disk + %d wal-tail mutations from %s (snapshot seq %d, wal seq %d, incarnation %d)\n",
				rs.IndexedRecords, len(rs.Mutations), *dataDir, rs.SnapshotSeq, rs.LastSeq, rs.Incarnation)
		} else {
			fmt.Printf("terradird: replayed %d hosted records from %s (snapshot seq %d, wal seq %d, incarnation %d)\n",
				len(rs.Mutations), *dataDir, rs.SnapshotSeq, rs.LastSeq, rs.Incarnation)
		}
	}
	var send overlay.Transport = transport
	if *faultDrop > 0 || *faultLatency > 0 {
		send = overlay.NewFaultTransport(transport, terradir.FaultOptions{
			DropProb: *faultDrop,
			Latency:  *faultLatency,
			Seed:     *seed + uint64(*id)*7919,
		})
		fmt.Printf("terradird: FAULT INJECTION on: drop=%.2f latency=%s\n", *faultDrop, *faultLatency)
	}
	overlay.StartTCPNodeVia(node, transport, send)
	if nodeOpts.Membership != nil {
		if *join != "" {
			fmt.Printf("terradird: membership on, joining via %s\n", *join)
		} else {
			fmt.Printf("terradird: membership on (%d static peers)\n", *servers)
		}
	}
	fmt.Printf("terradird: peer %d/%d up on %s; owns %d of %d nodes\n",
		*id, *servers, transport.Addr(), len(owned), tree.Len())

	var admin *telemetry.AdminServer
	if *adminAddr != "" {
		node.Registry().PublishExpvar("terradir")
		admin, err = telemetry.StartAdmin(*adminAddr, node.Registry(), node.Traces())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("terradird: admin endpoint on http://%s (/metrics /debug/vars /debug/pprof/ /traces)\n", admin.Addr())
	}

	var clientLn net.Listener
	if *client != "" {
		clientLn, err = net.Listen("tcp", *client)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("terradird: client port on %s\n", clientLn.Addr())
		go serveClients(clientLn, node, tree)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("terradird: shutting down")
	if admin != nil {
		admin.Close()
	}
	if clientLn != nil {
		clientLn.Close()
	}
	node.Stop()
	transport.Close()
	// The shutdown report comes from the same counter system the admin
	// endpoint scrapes.
	node.Registry().DumpNonZero(os.Stdout, "terradird")
}

// serveClients answers a minimal line protocol:
//
//	LOOKUP <name>\n  ->  OK <hops> <latency_ms> <name> hosts=<ids>\n
//	                 or  ERR <reason>\n
func serveClients(ln net.Listener, node *overlay.Node, tree *terradir.Tree) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			sc := bufio.NewScanner(c)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				fields := strings.Fields(line)
				if len(fields) != 2 || strings.ToUpper(fields[0]) != "LOOKUP" {
					fmt.Fprintf(c, "ERR usage: LOOKUP <name>\n")
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				res, err := node.LookupName(ctx, fields[1])
				cancel()
				switch {
				case err != nil:
					fmt.Fprintf(c, "ERR %v\n", err)
				case !res.OK:
					fmt.Fprintf(c, "ERR lookup failed: %s\n", res.Reason)
				default:
					hosts := make([]string, len(res.Hosts))
					for i, h := range res.Hosts {
						hosts[i] = fmt.Sprintf("%d", h)
					}
					fmt.Fprintf(c, "OK %d %.2f %s hosts=%s\n",
						res.Hops, float64(res.Latency)/float64(time.Millisecond),
						res.Name, strings.Join(hosts, ","))
				}
			}
		}(conn)
	}
}

// probeWritable creates dir if needed and verifies a file can actually be
// written there (permissions, read-only mounts, full disks all surface now
// instead of at the first WAL append).
func probeWritable(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	_, werr := f.Write([]byte("probe"))
	cerr := f.Close()
	os.Remove(name)
	if werr != nil {
		return werr
	}
	return cerr
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "terradird: %v\n", err)
	os.Exit(1)
}
