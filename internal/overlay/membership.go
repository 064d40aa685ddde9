package overlay

import (
	"fmt"

	"terradir/internal/core"
	"terradir/internal/membership"
)

// MembershipOptions enables the gossip membership subsystem on a node. With
// it, the node runs a SWIM-style failure detector over its transport, routes
// by a versioned ownership table instead of the static assignment, purges
// soft state naming dead servers, adopts dead peers' partitions when it is
// the designated ring successor, and admits (and warms up) joining servers.
type MembershipOptions struct {
	// Protocol tunes the probe/suspicion cycle.
	Protocol membership.Options
	// Servers is the deployment's server-ID space size. Required.
	Servers int
	// SelfAddr is the address other peers can dial this node's transport on;
	// it disseminates by gossip so joiners become reachable. May be empty for
	// transports that route by ID alone (LocalTransport).
	SelfAddr string
	// Peers seeds the member table with the statically known deployment
	// (addresses may be empty). Leave nil when bootstrapping via JoinAddr.
	Peers map[core.ServerID]string
	// JoinAddr bootstraps membership off one live peer instead of Peers
	// (requires a transport with SendTo, i.e. TCPTransport).
	JoinAddr string
}

// AddrSetter is implemented by transports that can learn peer addresses at
// runtime (TCPTransport); the membership subsystem uses it so joiners and
// restarted peers become dialable without reconstruction.
type AddrSetter interface {
	SetAddr(id core.ServerID, addr string)
}

// AddrSender is implemented by transports that can send to an explicit
// address before the destination's server-ID→address mapping is known — the
// join bootstrap path.
type AddrSender interface {
	SendTo(addr string, m core.Message) error
}

// warmupEntries bounds the hosted-map entries streamed to a member that
// joined or came back from dead.
const warmupEntries = 32

// setupOwnership builds the node's versioned ownership table from the static
// assignment (called from NewNode when membership is enabled).
func (n *Node) setupOwnership(ownerOf func(core.NodeID) core.ServerID) {
	base := make([]core.ServerID, n.tree.Len())
	for i := range base {
		base[i] = ownerOf(core.NodeID(i))
	}
	n.ownership = membership.NewOwnershipTable(base, n.opts.Membership.Servers)
}

// setupMembership builds the failure detector (called from NewNode, after
// persistence replay; Start launches it). It exists before the node can
// receive anything, so delivery never races its construction. The transport
// is read when the service uses it: it is wired later, by SetTransport.
func (n *Node) setupMembership() {
	mo := n.opts.Membership
	cfg := membership.Config{
		Self:     n.id,
		SelfAddr: mo.SelfAddr,
		Peers:    mo.Peers,
		JoinAddr: mo.JoinAddr,
		Options:  mo.Protocol,
		Registry: n.reg,
		Labels:   []string{"server", fmt.Sprint(n.id)},
		Send: func(to core.ServerID, m *core.MembershipMsg) {
			_ = n.transport.Send(n.id, to, m) // soft state: losses tolerated
		},
		OnEvent: func(ev membership.Event) {
			// Runs on the membership goroutine; handleMembershipEvent parks
			// the event loop so purges and handoffs apply atomically.
			n.handleMembershipEvent(ev)
		},
		OnAddr: func(id core.ServerID, addr string) {
			if as, ok := n.transport.(AddrSetter); ok {
				as.SetAddr(id, addr)
			}
		},
		SendAddr: func(addr string, m *core.MembershipMsg) error {
			if ds, ok := n.transport.(AddrSender); ok {
				return ds.SendTo(addr, m)
			}
			return fmt.Errorf("overlay: transport cannot send by address")
		},
	}
	if n.store != nil {
		// Incarnation bumps must hit the WAL before they gossip: a crashed
		// refutation that was seen by peers but not persisted would restart
		// us below the cluster's view of our own life.
		cfg.OnIncarnation = func(inc uint64) { _ = n.store.AppendIncarnation(inc) }
		if n.replayed.HasState() {
			// Restart with durable state: come back one incarnation past the
			// persisted one so our alive claim strictly supersedes any Dead
			// record still gossiped about our previous life.
			cfg.Incarnation = n.replayed.Incarnation + 1
			_ = n.store.AppendIncarnation(cfg.Incarnation)
		}
	}
	n.membership = membership.New(cfg)
}

// handleMembershipEvent runs on the membership goroutine: it folds a liveness
// transition into the ownership table, then parks the event loop to repair
// soft state and apply any partition handoff that lands on (or leaves) this
// server, so no query is routed between the purge and the handoff. The park
// is learn-marked, so the loop republishes its snapshot before the fast path
// serves again.
func (n *Node) handleMembershipEvent(ev membership.Event) {
	if n.ownership == nil || ev.ID == n.id {
		return
	}
	switch ev.State {
	case membership.Dead:
		changes := n.ownership.SetAlive(ev.ID, false)
		// Soft-state repair: drop every cached/replicated reference to the
		// dead server, reseeding emptied maps from the post-handoff owner.
		n.inspect(true, func(p *core.Peer) {
			p.PurgeServer(ev.ID, n.ownership.Owner)
			n.applyReassignments(p, changes)
		})
	case membership.Alive:
		changes := n.ownership.SetAlive(ev.ID, true)
		// A member that joined or came back from dead is pushed our hottest
		// maps, whether or not it replayed a data directory: maps are soft
		// state either way.
		warm := ev.Joined || ev.Prev == membership.Dead
		// Build the warmup slice with the loop parked, then send it after
		// the loop resumes.
		var entries []core.PathEntry
		n.inspect(true, func(p *core.Peer) {
			n.applyReassignments(p, changes)
			if warm {
				entries = p.BuildWarmup(warmupEntries)
			}
		})
		if len(entries) > 0 {
			// The slice is bounded, and it also announces our own
			// owned-partition claim to a joiner.
			if n.warmupStreams != nil {
				n.warmupStreams.Inc()
			}
			_ = n.transport.Send(n.id, ev.ID, &core.MembershipMsg{
				Kind: core.MembershipWarmup, From: n.id, Warmup: entries,
			})
		}
	}
}

// applyReassignments adopts or releases provisional ownership for every
// handoff that involves this server. Other servers' handoffs need no local
// action beyond the ownership table itself (routing consults it lazily).
// Runs with the loop parked.
func (n *Node) applyReassignments(p *core.Peer, changes []membership.Reassignment) {
	for _, ch := range changes {
		switch {
		case ch.To == n.id:
			p.AdoptOwnership(ch.Node, n.ownership.Owner)
		case ch.From == n.id:
			p.ReleaseOwnership(ch.Node)
		}
	}
}

// Membership returns the node's membership service (nil when the subsystem
// is disabled).
func (n *Node) Membership() *membership.Service { return n.membership }

// Ownership returns the node's versioned ownership table (nil when
// membership is disabled).
func (n *Node) Ownership() *membership.OwnershipTable { return n.ownership }
