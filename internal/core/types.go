package core

import (
	"terradir/internal/bloom"
	"terradir/internal/namespace"
	"terradir/internal/telemetry"
)

// ServerID identifies a participating server (peer). IDs are dense in
// [0, cluster size).
type ServerID int32

// NoServer is the sentinel for "no server".
const NoServer ServerID = -1

// clientIDBase is the first (highest) ServerID of the reserved edge-client
// range. Edge clients — gateways and other wire-protocol clients that are
// not overlay peers — identify themselves with IDs at or below this value so
// they can never collide with peer IDs (dense in [0, cluster size)) or
// NoServer. Client IDs appear only as QueryMsg.Source / reply routes; they
// never enter membership, ownership, or load tables.
const clientIDBase ServerID = -100

// ClientID maps a small non-negative edge-client ordinal to its reserved
// ServerID. Two clients of one deployment must not share an ordinal: peers
// route replies to whichever connection last introduced itself with the ID.
func ClientID(ordinal int) ServerID { return clientIDBase - ServerID(ordinal) }

// IsClient reports whether id lies in the reserved edge-client range.
func IsClient(id ServerID) bool { return id <= clientIDBase }

// NodeID aliases the namespace node identifier.
type NodeID = namespace.NodeID

// Meta is opaque application-supplied node metadata (name-value annotations
// in the paper's data model). Only the owner mutates it; replicas keep the
// newest version seen.
type Meta struct {
	Version uint64
	Attrs   map[string]string
}

// Clone returns a deep copy of the metadata.
func (m Meta) Clone() Meta {
	c := Meta{Version: m.Version}
	if m.Attrs != nil {
		c.Attrs = make(map[string]string, len(m.Attrs))
		for k, v := range m.Attrs {
			c.Attrs[k] = v
		}
	}
	return c
}

// Message is the sum type of all protocol messages. Implementations are
// value-ish: a message handed to Env.Send must not share mutable state with
// the sender (soft state is copied at send time).
type Message interface{ kind() string }

// QueryMsg routes a lookup through the overlay.
type QueryMsg struct {
	QueryID  uint64
	Dest     NodeID
	Source   ServerID // initiating server; receives the result
	OnBehalf NodeID   // node whose map the sender selected this server from
	Hops     int
	Started  float64 // initiation time (simulation seconds)
	// PrevDist is the namespace distance from the sender's chosen candidate
	// node to the destination — used to account routing accuracy (a
	// forwarding step makes incremental progress when the receiver can do
	// strictly better).
	PrevDist int32

	// Path is the path-so-far: one entry per forwarding server, used for
	// path-propagation caching (§2.4) and disseminating replica maps (§3.7).
	Path []PathEntry

	// TraceID identifies the lookup's distributed trace; 0 means untraced.
	// Every server on the route reports a telemetry.Span describing its hop
	// to the initiator (TraceSpanMsg).
	TraceID uint64

	// Enqueued and ServedAt are driver-local timestamps (seconds) set by the
	// hosting server when the query enters its request queue and when service
	// begins. They never cross the wire — each hop measures its own queue
	// wait and service time from them.
	Enqueued float64
	ServedAt float64

	Piggy Piggyback
}

func (*QueryMsg) kind() string { return "query" }

// ResultMsg returns a lookup outcome to the initiating server.
type ResultMsg struct {
	QueryID uint64
	Dest    NodeID
	OK      bool
	Reason  FailReason
	Hops    int
	Started float64
	Meta    Meta
	Map     NodeMap // mapping for the resolved node (lookup semantics §2.1)
	Path    []PathEntry
	// TraceID names the lookup's trace (0 = untraced); the initiator closes
	// its record on this result.
	TraceID uint64
	Piggy   Piggyback
}

func (*ResultMsg) kind() string { return "result" }

// TraceSpanMsg is the per-hop span report sent to the query's initiating
// server as the query routes; it is the only span carrier, so the
// initiator's trace store assembles the trace from these reports. When the
// query itself is lost mid-route the store holds a truncated prefix of the
// route instead of nothing.
type TraceSpanMsg struct {
	TraceID uint64
	Span    telemetry.Span
	Piggy   Piggyback
}

func (*TraceSpanMsg) kind() string { return "trace-span" }

// FailReason classifies lookup failures.
type FailReason uint8

const (
	FailNone FailReason = iota
	// FailTTL: the forwarding TTL was exceeded (stale-state loop).
	FailTTL
	// FailNoRoute: the server had no usable candidate to forward to.
	FailNoRoute
	// FailShed: an edge tier refused the request under admission control
	// (per-tenant quota exhausted or the gateway draining). Never produced by
	// overlay peers — only gateways synthesize it.
	FailShed
)

func (r FailReason) String() string {
	switch r {
	case FailNone:
		return "none"
	case FailTTL:
		return "ttl"
	case FailNoRoute:
		return "no-route"
	case FailShed:
		return "shed"
	}
	return "unknown"
}

// LoadProbeMsg asks a candidate replica host for its actual load (§3.3
// step 2).
type LoadProbeMsg struct {
	Session uint64
	From    ServerID
	Piggy   Piggyback
}

func (*LoadProbeMsg) kind() string { return "load-probe" }

// LoadProbeReply returns the probed server's actual load.
type LoadProbeReply struct {
	Session uint64
	From    ServerID
	Load    float64
	Piggy   Piggyback
}

func (*LoadProbeReply) kind() string { return "load-probe-reply" }

// ReplicateRequest carries replica payloads to a destination host (§3.3
// step 3).
type ReplicateRequest struct {
	Session uint64
	From    ServerID
	Load    float64 // requester's load at send time
	Nodes   []ReplicaPayload
	Piggy   Piggyback
}

func (*ReplicateRequest) kind() string { return "replicate-request" }

// ReplicateReply acknowledges (or refuses) a replication request.
type ReplicateReply struct {
	Session  ServerSession
	Accepted []NodeID // nodes actually installed
	Load     float64  // destination's load after install
	Piggy    Piggyback
}

func (*ReplicateReply) kind() string { return "replicate-reply" }

// ServerSession pairs a session ID with the responding server.
type ServerSession struct {
	ID   uint64
	From ServerID
}

// DataRequest retrieves a node's application data from a specific host —
// the second step of the paper's two-step process (§2.1: "a node lookup,
// followed by the actual data retrieval"). Data requests are sent directly
// to a server from the node's map, never routed.
type DataRequest struct {
	ReqID uint64
	Node  NodeID
	From  ServerID
	Piggy Piggyback
}

func (*DataRequest) kind() string { return "data-request" }

// DataReply answers a DataRequest. OK is false when the contacted server
// does not hold the node's data (only owners do; routing replicas carry no
// data — Table 1), in which case the client tries another host.
type DataReply struct {
	ReqID uint64
	Node  NodeID
	OK    bool
	Data  []byte
	From  ServerID
	Piggy Piggyback
}

func (*DataReply) kind() string { return "data-reply" }

// ReplicaPayload is the state transferred to create one replica: node
// metadata, the node's own map, and its routing context (neighbor maps) —
// exactly the state rows "Replicated" of the paper's Table 1.
type ReplicaPayload struct {
	Node    NodeID
	Meta    Meta
	SelfMap NodeMap
	// WeightHint is the source's current ranking weight for the node. Node
	// weights count queries (same unit everywhere), so the destination seeds
	// the replica's rank from it — a hot incoming replica displaces colder
	// residents, and a colder one is refused rather than thrashing the
	// Frepl-bounded replica set.
	WeightHint float64
	Neighbors  []NeighborMap
}

// NeighborMap associates a neighboring node with its map.
type NeighborMap struct {
	Node NodeID
	Map  NodeMap
}

// PathEntry is one step of the propagated path: a node and a mapping for it.
type PathEntry struct {
	Node NodeID
	Map  NodeMap
}

// Piggyback is the in-band dissemination rider attached to every message:
// the sender's identity and load (for replication target selection), newly
// created replica advertisements, and a bounded set of inverse-mapping
// digests (§3.6, §6 "piggybacking on query messages limited amounts of
// information about replica configurations and server loads and digests").
type Piggyback struct {
	From    ServerID
	Load    float64
	Adverts []Advert
	Digests []DigestUpdate
}

// Advert announces recently created replicas for a node.
type Advert struct {
	Node    NodeID
	Servers []ServerID
}

// DigestUpdate carries one server's inverse-mapping digest. The filter is an
// immutable snapshot (owners allocate a fresh filter on rebuild), so
// receivers retain the pointer without copying.
type DigestUpdate struct {
	Server ServerID
	Digest *bloom.Filter
}

// Membership frame kinds (MembershipMsg.Kind). The SWIM-style protocol these
// implement lives in internal/membership; the message type lives here because
// every protocol message must satisfy the unexported Message interface.
const (
	// MembershipPing probes a member directly.
	MembershipPing uint8 = iota + 1
	// MembershipAck answers a ping (directly or on behalf of a relayed probe;
	// Target names the member being vouched for).
	MembershipAck
	// MembershipPingReq asks a helper to probe Target on the sender's behalf.
	MembershipPingReq
	// MembershipJoin asks a live peer to admit the sender into the cluster.
	MembershipJoin
	// MembershipJoinAck answers a join with a full membership snapshot.
	MembershipJoinAck
	// MembershipWarmup streams replica advertisements (bounded hosted-map
	// entries) to a member that joined or came back from dead, so it routes
	// warm from the start; a restarted member with a data directory takes
	// the same stream.
	MembershipWarmup
)

// MemberUpdate is one piggybacked membership delta: a (server, state,
// incarnation) claim, plus the member's dialable address when known, so
// address discovery rides the same gossip as liveness.
type MemberUpdate struct {
	Server      ServerID
	State       uint8 // membership.State: 0 alive, 1 suspect, 2 dead
	Incarnation uint64
	Addr        string
}

// MembershipMsg carries the gossip membership protocol: probes, acks,
// indirect probe requests, the join handshake, and warmup streams. Every
// message piggybacks a bounded set of MemberUpdates (the SWIM dissemination
// component). Seq correlates acks with pending probes; Target names the
// probed member for PingReq/Ack relays.
type MembershipMsg struct {
	Kind    uint8
	Seq     uint64
	From    ServerID
	Target  ServerID
	Updates []MemberUpdate
	Warmup  []PathEntry
}

func (*MembershipMsg) kind() string { return "membership" }

// HelloMsg is the client-role handshake (wire version 5): the first frame an
// edge client (gateway, wire-protocol CLI) sends on a connection it dialed.
// It registers the connection as the reply route for ID — the receiving
// transport sends every subsequent message addressed to ID back over this
// same connection instead of dialing, which is what lets a client that is
// not a routable overlay peer receive lookup results. ID must lie in the
// reserved client range (IsClient); peers never send hellos.
type HelloMsg struct {
	ID ServerID
	// Role is reserved for future differentiation of edge-client kinds;
	// currently always RoleClient.
	Role uint8
}

// RoleClient is the only HelloMsg role currently defined.
const RoleClient uint8 = 1

func (*HelloMsg) kind() string { return "hello" }

// NodeKey converts a node ID to a Bloom digest key. The simulator keys
// digests by node identity; the wire layer keys by fully-qualified name via
// bloom.HashString — both are opaque 64-bit keys to the filter.
func NodeKey(n NodeID) uint64 {
	x := uint64(uint32(n)) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
