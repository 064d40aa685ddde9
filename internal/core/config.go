// Package core implements the TerraDir hierarchical routing and soft-state
// replication protocol (Silaghi et al., IPPS 2004): per-server routing state
// over a tree namespace (owned nodes with neighbor context, replicas, LRU
// caches with path propagation), the load-triggered adaptive replication
// protocol of §3, and the Bloom-filter inverse-mapping digest machinery of
// §3.6 (shortcut discovery and map pruning).
//
// The protocol core is a transport-agnostic state machine: a Peer consumes
// messages and emits sends through an Env interface. The same Peer code is
// driven by the deterministic discrete-event simulator (internal/cluster)
// for the paper's experiments and by the live goroutine-per-peer overlay
// (internal/overlay) over real transports.
package core

import (
	"fmt"
	"math"
)

// Config holds every protocol constant. The zero value is not valid; start
// from DefaultConfig. Feature switches exist for the paper's ablations
// (Fig. 5 compares base / +caching / +caching+replication; §2.4 and §3.6
// motivate path propagation and digests).
type Config struct {
	// Thigh is the high-water load threshold that triggers a load balancing
	// (replication) session (§3.1).
	Thigh float64
	// AdaptiveThigh raises the effective threshold to (estimated system
	// utilization + DeltaMin) when that exceeds Thigh — §3.1: the threshold
	// "can automatically be set in proportion to the overall system
	// utilization". Near-capacity deployments otherwise rebalance
	// perpetually: with mean load above Thigh, half the fleet is
	// "overloaded" by definition.
	AdaptiveThigh bool
	// DeltaMin is the minimum load difference between requester and target
	// for the target to agree to host new replicas (§3.1).
	DeltaMin float64
	// ReplFactor (Frepl) bounds replicas hosted per server to
	// ReplFactor × (owned nodes) (§3.4). May be fractional (§4.4 sweeps
	// 0.125–0.5).
	ReplFactor float64
	// MapSize (Msize) caps entries per node map, both stored and propagated
	// (§3.7).
	MapSize int
	// CacheSlots caps the LRU routing cache per server (§2.4; logarithmic in
	// system size in the paper's runs).
	CacheSlots int

	// MaxHops is the forwarding TTL guarding against routing loops caused by
	// stale soft state. Queries exceeding it fail.
	MaxHops int
	// MaxPathEntries caps the path-so-far propagated with a query (§2.4).
	MaxPathEntries int

	// WeightHalfLife is the half-life (seconds) of the exponential decay
	// applied to node weight counters, approximating the paper's periodic
	// counter rescaling (§3.2).
	WeightHalfLife float64

	// ReplicationAttempts is the number of destination candidates tried per
	// load-balancing session before aborting (§3.3 step 5).
	ReplicationAttempts int
	// ReplicationCooldown is the delay (seconds) before a new session after
	// an aborted one (§3.3 step 5) and the minimum spacing between sessions.
	ReplicationCooldown float64
	// ProbeTimeout is how long (seconds) a session waits for a load probe or
	// replicate reply before giving up on that candidate.
	ProbeTimeout float64

	// ReplicaEvictAge evicts replicas unused for this many seconds during
	// maintenance (§3.5 "evict replicas that have not been in use for a long
	// time"). Zero disables age-based eviction.
	ReplicaEvictAge float64
	// MaintainInterval is the spacing (seconds) of the per-peer maintenance
	// tick (digest rebuild, load-bias decay, age-based eviction).
	MaintainInterval float64

	// DigestBitsPerNode sizes each server's Bloom digest: bits = max(64,
	// BitsPerNode × hosted nodes), rounded up to a power of two.
	DigestBitsPerNode int
	// DigestHashes is the Bloom filter hash count.
	DigestHashes int
	// MaxDigests bounds how many foreign digests a peer retains. Retained
	// digests serve O(1) map pruning for any entry; only a rotating window
	// of DigestScanPerHop of them is scanned for shortcut discovery.
	MaxDigests int
	// DigestScanPerHop bounds how many retained digests the shortcut search
	// scans per hop (rotating window over the table, so coverage spreads
	// across hops). Zero scans all retained digests.
	DigestScanPerHop int
	// DigestsPerMessage bounds digests piggybacked per outgoing message.
	DigestsPerMessage int
	// DigestShortcutLevels bounds how many of the destination's deepest
	// ancestors the shortcut search (§3.6.1) tests against known digests per
	// hop. The deepest levels dominate the benefit (they are the closest
	// possible nodes); the cap keeps per-hop cost at
	// O(levels × MaxDigests) Bloom probes.
	DigestShortcutLevels int

	// MaxKnownLoads bounds the per-peer table of gossiped server loads.
	MaxKnownLoads int

	// Feature switches (ablations).
	CachingEnabled     bool // C in Fig. 5; false = base system B
	ReplicationEnabled bool // R in Fig. 5
	DigestsEnabled     bool // §3.6 machinery
	PathPropagation    bool // §2.4; false caches only the query endpoints
}

// DefaultConfig returns the configuration used by the paper's evaluation
// (reconstructed values flagged in DESIGN.md §4).
func DefaultConfig() Config {
	return Config{
		Thigh:                0.75,
		DeltaMin:             0.10,
		ReplFactor:           2,
		MapSize:              8,
		CacheSlots:           20,
		MaxHops:              64,
		MaxPathEntries:       16,
		WeightHalfLife:       2.0,
		ReplicationAttempts:  3,
		ReplicationCooldown:  1.0,
		ProbeTimeout:         0.5,
		ReplicaEvictAge:      60,
		MaintainInterval:     1.0,
		DigestBitsPerNode:    16,
		DigestHashes:         6,
		MaxDigests:           256,
		DigestScanPerHop:     64,
		DigestsPerMessage:    3,
		DigestShortcutLevels: 3,
		MaxKnownLoads:        128,
		CachingEnabled:       true,
		ReplicationEnabled:   true,
		DigestsEnabled:       true,
		PathPropagation:      true,
	}
}

// Validate reports the first configuration error, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Thigh <= 0 || c.Thigh > 1:
		return fmt.Errorf("core: Thigh %v out of (0,1]", c.Thigh)
	case c.DeltaMin < 0 || c.DeltaMin > 1:
		return fmt.Errorf("core: DeltaMin %v out of [0,1]", c.DeltaMin)
	case c.ReplFactor < 0:
		return fmt.Errorf("core: ReplFactor %v negative", c.ReplFactor)
	case c.MapSize < 1:
		return fmt.Errorf("core: MapSize %d < 1", c.MapSize)
	case c.CacheSlots < 0:
		return fmt.Errorf("core: CacheSlots %d negative", c.CacheSlots)
	case c.MaxHops < 1:
		return fmt.Errorf("core: MaxHops %d < 1", c.MaxHops)
	case c.MaxPathEntries < 0:
		return fmt.Errorf("core: MaxPathEntries %d negative", c.MaxPathEntries)
	case c.WeightHalfLife <= 0:
		return fmt.Errorf("core: WeightHalfLife %v <= 0", c.WeightHalfLife)
	case c.ReplicationAttempts < 1:
		return fmt.Errorf("core: ReplicationAttempts %d < 1", c.ReplicationAttempts)
	case c.ReplicationCooldown < 0:
		return fmt.Errorf("core: ReplicationCooldown %v negative", c.ReplicationCooldown)
	case c.ProbeTimeout <= 0:
		return fmt.Errorf("core: ProbeTimeout %v <= 0", c.ProbeTimeout)
	case c.MaintainInterval <= 0:
		return fmt.Errorf("core: MaintainInterval %v <= 0", c.MaintainInterval)
	case c.DigestBitsPerNode < 1:
		return fmt.Errorf("core: DigestBitsPerNode %d < 1", c.DigestBitsPerNode)
	case c.DigestHashes < 1:
		return fmt.Errorf("core: DigestHashes %d < 1", c.DigestHashes)
	case c.MaxDigests < 0:
		return fmt.Errorf("core: MaxDigests %d negative", c.MaxDigests)
	case c.DigestScanPerHop < 0:
		return fmt.Errorf("core: DigestScanPerHop %d negative", c.DigestScanPerHop)
	case c.DigestsPerMessage < 0:
		return fmt.Errorf("core: DigestsPerMessage %d negative", c.DigestsPerMessage)
	case c.DigestShortcutLevels < 0:
		return fmt.Errorf("core: DigestShortcutLevels %d negative", c.DigestShortcutLevels)
	case c.MaxKnownLoads < 1:
		return fmt.Errorf("core: MaxKnownLoads %d < 1", c.MaxKnownLoads)
	}
	if math.IsNaN(c.Thigh) || math.IsNaN(c.DeltaMin) || math.IsNaN(c.ReplFactor) {
		return fmt.Errorf("core: NaN in configuration")
	}
	return nil
}

// ScaleCacheForServers returns the paper's logarithmic cache sizing for a
// system of n servers: 2·⌈log₂ n⌉ slots (§4.5).
func ScaleCacheForServers(n int) int {
	if n < 2 {
		return 2
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return 2 * bits
}

// ScaleMapSizeForServers returns the paper's logarithmic Msize scaling for a
// system of n servers (Fig. 9: Msize grows logarithmically, 2..10 over
// 2^6..2^14 servers): max(2, ⌈log₂ n⌉ − 4).
func ScaleMapSizeForServers(n int) int {
	if n < 2 {
		return 2
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	m := bits - 4
	if m < 2 {
		m = 2
	}
	return m
}
