// Package terradir is a Go implementation of TerraDir's hierarchical
// peer-to-peer lookup service with adaptive soft-state replication of
// routing state (Silaghi, Gopalakrishnan, Bhattacharjee, Keleher:
// "Hierarchical Routing with Soft-State Replicas in TerraDir", IPPS 2004).
//
// The package offers three ways to run the protocol:
//
//   - Simulation: a deterministic discrete-event simulator with the paper's
//     queueing model (NewSimulation), used by the experiment drivers that
//     regenerate every figure of the paper's evaluation (Experiments,
//     RunExperiment).
//   - Live local overlay: one goroutine per server over in-process
//     transport (NewLocalOverlay) — the same protocol state machine, run
//     for real.
//   - Live TCP overlay: nodes in separate processes over length-prefixed
//     binary frames (see cmd/terradird; TCPTransport and its options are
//     re-exported here).
//
// Quickstart:
//
//	ns := terradir.NewBalancedNamespace(2, 10)          // 1023-node tree
//	ov, _ := terradir.NewLocalOverlay(ns, terradir.OverlayOptions{Servers: 8})
//	defer ov.StopAll()
//	res, _ := ov.LookupName(ctx, 0, ns.Name(500))
//	fmt.Println(res.Name, res.Hosts)
package terradir

import (
	"fmt"

	"terradir/internal/cluster"
	"terradir/internal/core"
	"terradir/internal/exp"
	"terradir/internal/membership"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/rng"
	"terradir/internal/workload"
)

// Namespace types.
type (
	// Tree is an immutable hierarchical namespace (rooted tree of fully
	// qualified names).
	Tree = namespace.Tree
	// NodeID identifies a namespace node.
	NodeID = namespace.NodeID
	// TreeBuilder incrementally constructs a Tree.
	TreeBuilder = namespace.Builder
)

// InvalidNode is the sentinel for "no node".
const InvalidNode = namespace.Invalid

// Protocol types.
type (
	// Config holds every protocol constant (thresholds, Frepl, Msize, cache
	// and digest sizing, feature switches).
	Config = core.Config
	// ServerID identifies a participating server.
	ServerID = core.ServerID
)

// DefaultConfig returns the paper's protocol configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewBalancedNamespace builds a perfectly balanced tree namespace (the
// paper's synthetic namespace Ns is NewBalancedNamespace(2, 15): 32,767
// nodes).
func NewBalancedNamespace(arity, levels int) *Tree {
	return namespace.NewBalanced(arity, levels)
}

// NewFileSystemNamespace builds a synthetic file-system-shaped namespace of
// approximately targetNodes nodes (the stand-in for the paper's Coda-trace
// namespace Nc; see DESIGN.md §2).
func NewFileSystemNamespace(seed uint64, targetNodes int) *Tree {
	return namespace.NewFileSystem(seed, targetNodes)
}

// ParseNamespace builds a namespace from parallel parent/label arrays
// (parents[0] must be -1; parents[i] < i).
func ParseNamespace(parents []int32, labels []string) (*Tree, error) {
	return namespace.NewFromParents(parents, labels)
}

// Simulation types.
type (
	// Simulation is a deterministic simulated TerraDir deployment.
	Simulation = cluster.Cluster
	// SimParams configures a Simulation.
	SimParams = cluster.Params
	// Workload is a composed query stream (uniform / Zipf phases with
	// popularity-shift events).
	Workload = workload.Workload
)

// DefaultSimParams returns the paper's simulation methodology constants for
// the given namespace and server count.
func DefaultSimParams(tree *Tree, servers int) SimParams {
	return cluster.DefaultParams(tree, servers)
}

// NewSimulation builds a simulated deployment.
func NewSimulation(p SimParams) (*Simulation, error) { return cluster.New(p) }

// UniformWorkload builds the paper's "unif" stream: uniformly random
// destinations at the given global rate for duration seconds.
func UniformWorkload(tree *Tree, seed uint64, rate, duration float64) *Workload {
	return workload.Unif(tree.Len(), rng.New(seed), rate, duration)
}

// ZipfWorkload builds a "uzipf<alpha>" stream over a random popularity
// ranking.
func ZipfWorkload(tree *Tree, seed uint64, alpha, rate, duration float64) *Workload {
	return workload.UZipf(tree.Len(), rng.New(seed), alpha, rate, duration)
}

// ShiftingHotspotWorkload builds the paper's composed adaptation stream: a
// uniform warmup followed by k Zipf(alpha) segments, each with a fresh
// random popularity ranking (instantaneous hot-spot shifts).
func ShiftingHotspotWorkload(tree *Tree, seed uint64, alpha, rate, warmup, total float64, k int) *Workload {
	return workload.UnifThenZipfShifts(tree.Len(), rng.New(seed), alpha, rate, warmup, total, k)
}

// Overlay types.
type (
	// Overlay is a live in-process deployment: one goroutine per server.
	Overlay = overlay.LocalCluster
	// OverlayNode is one live server.
	OverlayNode = overlay.Node
	// NodeOptions configures a live node.
	NodeOptions = overlay.Options
	// TCPTransport carries protocol messages between processes over
	// per-peer asynchronous outbound queues with reconnect/backoff.
	TCPTransport = overlay.TCPTransport
	// TCPTransportOptions tunes the TCP transport (per-peer queue depth,
	// dial/write timeouts, reconnect backoff); zero values mean defaults.
	TCPTransportOptions = overlay.TCPTransportOptions
	// TransportStats is a monitoring snapshot of transport counters
	// (sends, drops, redials, corrupt frames, ...).
	TransportStats = overlay.TransportStats
	// FaultTransport wraps any transport with deterministic fault
	// injection: crashed peers, asymmetric partitions, probabilistic drops
	// and added latency.
	FaultTransport = overlay.FaultTransport
	// FaultOptions configures a FaultTransport.
	FaultOptions = overlay.FaultOptions
	// OverlayOptions configures NewLocalOverlay: server count, seed, per-node
	// options, and optional fault injection (retrieve it with Overlay.Fault)
	// and gossip membership.
	OverlayOptions = overlay.LocalClusterOptions
	// MembershipProtocolOptions tunes the gossip failure detector's
	// probe/suspicion cycle; zero values mean defaults.
	MembershipProtocolOptions = membership.Options
)

// NewLocalOverlay builds and starts a live in-process overlay over the
// namespace. Stop it with StopAll.
func NewLocalOverlay(tree *Tree, opts OverlayOptions) (*Overlay, error) {
	return overlay.NewLocalCluster(tree, opts)
}

// AssignOwners deterministically maps namespace nodes to servers; all
// processes of a TCP deployment must use the same (tree, servers, seed).
func AssignOwners(tree *Tree, servers int, seed uint64) []ServerID {
	return overlay.Assign(tree, servers, seed)
}

// Experiment types.
type (
	// Experiment is a registered reproduction driver (one per paper
	// figure/table).
	Experiment = exp.Driver
	// ExperimentEnv fixes scale and seed for a driver run.
	ExperimentEnv = exp.Env
	// ExperimentResult is a regenerated table/series.
	ExperimentResult = exp.Result
)

// Experiments lists every registered reproduction driver (Table 1,
// Figures 3–9, E10/E11, ablations).
func Experiments() []Experiment { return exp.Drivers() }

// RunExperiment regenerates one paper artifact by ID ("fig3", "table1", ...)
// at the given environment. See exp.DefaultEnv (paper scale) and
// exp.BenchEnv (reduced).
func RunExperiment(id string, env ExperimentEnv) (*ExperimentResult, error) {
	d, ok := exp.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("terradir: unknown experiment %q", id)
	}
	return d.Run(env), nil
}

// PaperScale returns the paper-scale experiment environment.
func PaperScale() ExperimentEnv { return exp.DefaultEnv() }

// ReducedScale returns a reduced experiment environment (fraction of the
// paper's 1000 servers; rates and durations scale with it).
func ReducedScale(scale float64, seed uint64) ExperimentEnv {
	return exp.Env{Scale: scale, Seed: seed}
}
