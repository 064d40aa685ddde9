// Package cluster wires core.Peer instances into the discrete-event
// simulator with the queueing model of the paper's methodology (§4.1):
// exponential per-query service, a bounded per-server request queue that
// drops on overflow, constant application-layer network delay, Poisson
// arrivals at uniformly random source servers, and uniform-random (or
// balanced) node-to-server assignment. Control and result messages bypass
// the service queue (they are lightweight; E11 verifies they are ≥2 orders
// of magnitude rarer than queries).
package cluster

import (
	"fmt"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/rng"
	"terradir/internal/sim"
	"terradir/internal/workload"
)

// Assignment selects how nodes map onto servers.
type Assignment uint8

const (
	// AssignRandom maps each node to a uniformly random server (the paper's
	// main experiments).
	AssignRandom Assignment = iota
	// AssignBalanced deals a random permutation of nodes out evenly
	// (Fig. 9's "nodes per server kept constant").
	AssignBalanced
)

// Params configures a simulated TerraDir deployment.
type Params struct {
	Servers     int
	Tree        *namespace.Tree
	Seed        uint64
	ServiceMean float64 // mean query service time, seconds (calibrated, see DefaultParams)
	NetDelay    float64 // constant application-layer network time (25 ms)
	QueueCap    int     // request queue slots (12)
	LoadWindow  float64 // load metric window Ω (0.5 s)
	Assignment  Assignment
	Core        core.Config
	// Oracle replaces Bloom digests with perfect inverse-mapping knowledge
	// (§4.4's optimal-behavior yardstick).
	Oracle bool
	// Static pre-replicates the top of the namespace at setup (§2.3's
	// static alternative to the adaptive protocol): every node at depth <
	// Static.Levels is replicated onto Static.Factor random servers before
	// any traffic flows.
	Static StaticReplication
}

// StaticReplication configures setup-time replication of top namespace
// levels.
type StaticReplication struct {
	Levels int // replicate nodes at depth < Levels (0 disables)
	Factor int // replicas per node
}

// DefaultParams returns the paper's methodology constants for the given
// namespace and server count.
func DefaultParams(tree *namespace.Tree, servers int) Params {
	cfg := core.DefaultConfig()
	// Per-server soft-state tables stay a bounded *fraction* of the system
	// (the paper's "local information and scalability" goal): a peer that
	// retains digests for most of the population would route with near-
	// global knowledge and mask the hierarchical bottleneck the protocol
	// exists to fix.
	cfg.MaxDigests = clampInt(servers/4, 16, 256)
	if cfg.DigestScanPerHop > cfg.MaxDigests {
		cfg.DigestScanPerHop = cfg.MaxDigests
	}
	cfg.MaxKnownLoads = clampInt(servers/8, 16, 128)
	return Params{
		Servers: servers,
		Tree:    tree,
		Seed:    1,
		// Calibrated (the paper's constant is OCR-lost) so that the paper's
		// query-rate ladder λ = 4k/10k/20k on 1000 servers lands near its
		// reported utilization ladder ≈ 0.2/0.5/0.8 at our realized mean
		// route length; see DESIGN.md §4.
		ServiceMean: 0.008,
		NetDelay:    0.025,
		QueueCap:    12,
		LoadWindow:  0.5,
		Core:        cfg,
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Cluster is a simulated TerraDir deployment.
type Cluster struct {
	p        Params
	eng      *sim.Engine
	peers    []*core.Peer
	stations []*sim.Station
	owner    []core.ServerID // node -> owning server
	hosts    [][]core.ServerID
	failed   []bool

	arrivalSrc *rng.Source
	queryID    uint64

	Metrics *Metrics
}

type peerEnv struct {
	c  *Cluster
	id core.ServerID
}

func (e peerEnv) Now() float64  { return e.c.eng.Now() }
func (e peerEnv) Load() float64 { return e.c.stations[e.id].Load() }
func (e peerEnv) After(d float64, fn func()) {
	e.c.eng.After(d, fn)
}
func (e peerEnv) Send(to core.ServerID, m core.Message) {
	c := e.c
	switch m.(type) {
	case *core.QueryMsg:
		c.Metrics.QueryMsgs++
	case *core.ResultMsg:
		c.Metrics.ResultMsgs++
	default:
		c.Metrics.ControlMsgs++
	}
	delay := c.p.NetDelay
	if to == e.id {
		delay = 0 // local delivery (e.g. a replica shortcut on this server)
	}
	c.eng.After(delay, func() { c.deliver(to, m) })
}

// New constructs and wires a cluster. The namespace is assigned to servers,
// every peer's routing context is initialized to the true owners, and all
// instrumentation hooks are installed.
func New(p Params) (*Cluster, error) {
	if p.Servers < 1 {
		return nil, fmt.Errorf("cluster: Servers = %d", p.Servers)
	}
	if p.Tree == nil {
		return nil, fmt.Errorf("cluster: nil namespace")
	}
	if p.ServiceMean <= 0 || p.NetDelay < 0 || p.LoadWindow <= 0 {
		return nil, fmt.Errorf("cluster: invalid timing parameters")
	}
	if p.QueueCap < 0 {
		return nil, fmt.Errorf("cluster: negative QueueCap")
	}
	if err := p.Core.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		p:       p,
		eng:     &sim.Engine{},
		owner:   make([]core.ServerID, p.Tree.Len()),
		hosts:   make([][]core.ServerID, p.Tree.Len()),
		failed:  make([]bool, p.Servers),
		Metrics: newMetrics(p.Tree.MaxDepth() + 1),
	}
	root := rng.New(p.Seed)
	assignSrc := root.Split()
	c.arrivalSrc = root.Split()

	n := p.Tree.Len()
	switch p.Assignment {
	case AssignBalanced:
		perm := make([]int, n)
		assignSrc.Perm(perm)
		for i, node := range perm {
			c.owner[node] = core.ServerID(i % p.Servers)
		}
	default:
		for i := 0; i < n; i++ {
			c.owner[i] = core.ServerID(assignSrc.Intn(p.Servers))
		}
	}
	for node := 0; node < n; node++ {
		c.hosts[node] = append(c.hosts[node], c.owner[node])
	}

	c.peers = make([]*core.Peer, p.Servers)
	c.stations = make([]*sim.Station, p.Servers)
	for i := 0; i < p.Servers; i++ {
		id := core.ServerID(i)
		peer, err := core.NewPeer(id, p.Tree, p.Core, peerEnv{c: c, id: id}, root.Split())
		if err != nil {
			return nil, err
		}
		c.peers[i] = peer
		st := sim.NewStation(c.eng, root.Split(), p.ServiceMean, p.QueueCap, p.LoadWindow)
		st.Process = func(j sim.Job) { peer.HandleQuery(j.(*core.QueryMsg)) }
		st.OnDrop = func(sim.Job) {
			c.Metrics.Drops.Incr(c.eng.Now())
			c.Metrics.DroppedTotal++
		}
		c.stations[i] = st
		c.installHooks(peer)
	}
	ownerOf := func(nd core.NodeID) core.ServerID { return c.owner[nd] }
	for node := 0; node < n; node++ {
		c.peers[c.owner[node]].AddOwned(core.NodeID(node), core.Meta{})
	}
	for _, peer := range c.peers {
		peer.FinishSetup(ownerOf)
	}
	if p.Oracle {
		for _, peer := range c.peers {
			peer.OracleHosts = c.HostsOf
		}
	}
	if p.Static.Levels > 0 && p.Static.Factor > 0 {
		c.staticReplicate(assignSrc, p.Static)
	}
	return c, nil
}

// staticReplicate installs Factor replicas of every node at depth < Levels
// onto distinct random servers (excluding the owner) before the run starts.
func (c *Cluster) staticReplicate(src *rng.Source, st StaticReplication) {
	for node := 0; node < c.p.Tree.Len(); node++ {
		nd := core.NodeID(node)
		if c.p.Tree.Depth(nd) >= st.Levels {
			continue
		}
		owner := c.owner[nd]
		pl, ok := c.peers[owner].BuildReplicaPayload(nd)
		if !ok {
			continue
		}
		pl.WeightHint = 1 // neutral seed rank for bootstrap replicas
		placed := 0
		for attempt := 0; attempt < 4*st.Factor && placed < st.Factor; attempt++ {
			target := core.ServerID(src.Intn(c.p.Servers))
			if target == owner || c.peers[target].Hosts(nd) {
				continue
			}
			plCopy := core.ReplicaPayload{
				Node: pl.Node, Meta: pl.Meta.Clone(), SelfMap: pl.SelfMap.Clone(),
				WeightHint: pl.WeightHint,
			}
			for _, nb := range pl.Neighbors {
				plCopy.Neighbors = append(plCopy.Neighbors, core.NeighborMap{Node: nb.Node, Map: nb.Map.Clone()})
			}
			if c.peers[target].InstallReplica(&plCopy, owner) {
				placed++
			}
		}
	}
}

func (c *Cluster) installHooks(peer *core.Peer) {
	id := peer.ID
	peer.Hooks.OnReplicaInstalled = func(node core.NodeID, from core.ServerID) {
		now := c.eng.Now()
		c.Metrics.Creations.Incr(now)
		c.Metrics.CreationsByLevel[c.p.Tree.Depth(node)]++
		c.hosts[node] = append(c.hosts[node], id)
	}
	peer.Hooks.OnReplicaEvicted = func(node core.NodeID) {
		c.Metrics.Evictions++
		hs := c.hosts[node]
		for i, s := range hs {
			if s == id {
				c.hosts[node] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
	}
	peer.Hooks.OnForwardStep = func(prev, new int) {
		c.Metrics.TotalSteps++
		if new < prev {
			c.Metrics.ProgressSteps++
		}
	}
}

// Engine exposes the simulation engine (read-only use: Now, Processed).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Peer returns server i's protocol state machine.
func (c *Cluster) Peer(i int) *core.Peer { return c.peers[i] }

// Servers returns the number of servers.
func (c *Cluster) Servers() int { return c.p.Servers }

// Tree returns the namespace.
func (c *Cluster) Tree() *namespace.Tree { return c.p.Tree }

// OwnerOf returns the owner of a node.
func (c *Cluster) OwnerOf(node core.NodeID) core.ServerID { return c.owner[node] }

// HostsOf returns the servers currently hosting node (owner plus live
// replicas). The slice is live; callers must not mutate it.
func (c *Cluster) HostsOf(node core.NodeID) []core.ServerID { return c.hosts[node] }

// FailServer takes a server offline: all messages to it are lost (queries
// count as drops) and its queue stops serving. Routing state elsewhere is
// untouched — the protocol's soft state must route around it.
func (c *Cluster) FailServer(id core.ServerID) { c.failed[id] = true }

// RecoverServer brings a failed server back with its state intact.
func (c *Cluster) RecoverServer(id core.ServerID) { c.failed[id] = false }

func (c *Cluster) deliver(to core.ServerID, m core.Message) {
	if c.failed[to] {
		if _, isQuery := m.(*core.QueryMsg); isQuery {
			c.Metrics.Drops.Incr(c.eng.Now())
			c.Metrics.DroppedTotal++
		}
		return
	}
	switch msg := m.(type) {
	case *core.QueryMsg:
		c.stations[to].Arrive(msg)
	case *core.ResultMsg:
		c.recordResult(msg)
		c.peers[to].HandleResult(msg)
	default:
		c.peers[to].HandleControl(m)
	}
}

func (c *Cluster) recordResult(r *core.ResultMsg) {
	switch {
	case r.OK:
		c.Metrics.Completed++
		c.Metrics.Latency.Add(c.eng.Now() - r.Started)
		c.Metrics.Hops.Add(float64(r.Hops))
	case r.Reason == core.FailTTL:
		c.Metrics.FailedTTL++
	default:
		c.Metrics.FailedNoRoute++
	}
}

// InjectQuery submits one lookup at the given source server right now,
// returning its query ID. Used by tests and examples; Run drives the Poisson
// process for experiments.
func (c *Cluster) InjectQuery(source core.ServerID, dest core.NodeID) uint64 {
	c.queryID++
	q := &core.QueryMsg{
		QueryID:  c.queryID,
		Dest:     dest,
		Source:   source,
		OnBehalf: namespace.Invalid,
		Started:  c.eng.Now(),
	}
	c.Metrics.Injected.Incr(c.eng.Now())
	if c.failed[source] {
		c.Metrics.Drops.Incr(c.eng.Now())
		c.Metrics.DroppedTotal++
		return c.queryID
	}
	c.stations[source].Arrive(q)
	return c.queryID
}

// Run drives the cluster for `duration` seconds of simulated time under the
// given workload: Poisson arrivals at w.Rate(t), destinations from
// w.Dest(t), uniform random sources. Maintenance and sampling ticks run
// alongside. Run may be called repeatedly; time continues monotonically.
func (c *Cluster) Run(w *workload.Workload, duration float64) {
	start := c.eng.Now()
	end := start + duration

	// Poisson arrival process.
	var arrive func()
	arrive = func() {
		now := c.eng.Now()
		src := core.ServerID(c.arrivalSrc.Intn(c.p.Servers))
		c.InjectQuery(src, w.Dest(now))
		dt := c.arrivalSrc.Exp(1 / w.Rate(now))
		if now+dt < end {
			c.eng.At(now+dt, arrive)
		}
	}
	first := start + c.arrivalSrc.Exp(1/w.Rate(start))
	if first < end {
		c.eng.At(first, arrive)
	}

	// Per-second load sampling (Fig. 6).
	var sample func()
	sample = func() {
		var sum, max float64
		for _, st := range c.stations {
			l := st.Load()
			sum += l
			if l > max {
				max = l
			}
		}
		c.Metrics.LoadAvg = append(c.Metrics.LoadAvg, sum/float64(len(c.stations)))
		c.Metrics.LoadMax = append(c.Metrics.LoadMax, max)
		if c.eng.Now()+1 <= end {
			c.eng.After(1, sample)
		}
	}
	c.eng.At(start+1, sample)

	// Maintenance ticks (digest rebuilds, bias decay, age eviction).
	mi := c.p.Core.MaintainInterval
	var maintain func()
	maintain = func() {
		for i, peer := range c.peers {
			if !c.failed[i] {
				peer.Maintain()
			}
		}
		if c.eng.Now()+mi <= end {
			c.eng.After(mi, maintain)
		}
	}
	c.eng.At(start+mi, maintain)

	c.eng.Run(end)
}

// RunTrace replays an explicit query trace: each event arrives at its
// recorded time, at its recorded source server (uniform random when the
// event's source is -1). Maintenance and load sampling run as in Run. Time
// continues from the engine's current clock; trace times are relative to it.
func (c *Cluster) RunTrace(tr *workload.Trace, extra float64) {
	start := c.eng.Now()
	end := start + tr.Duration() + extra
	for _, e := range tr.Events {
		ev := e
		c.eng.At(start+ev.T, func() {
			src := core.ServerID(0)
			if ev.Source >= 0 && int(ev.Source) < c.p.Servers {
				src = core.ServerID(ev.Source)
			} else {
				src = core.ServerID(c.arrivalSrc.Intn(c.p.Servers))
			}
			c.InjectQuery(src, ev.Dest)
		})
	}
	var sample func()
	sample = func() {
		var sum, max float64
		for _, st := range c.stations {
			l := st.Load()
			sum += l
			if l > max {
				max = l
			}
		}
		c.Metrics.LoadAvg = append(c.Metrics.LoadAvg, sum/float64(len(c.stations)))
		c.Metrics.LoadMax = append(c.Metrics.LoadMax, max)
		if c.eng.Now()+1 <= end {
			c.eng.After(1, sample)
		}
	}
	c.eng.At(start+1, sample)
	mi := c.p.Core.MaintainInterval
	var maintain func()
	maintain = func() {
		for i, peer := range c.peers {
			if !c.failed[i] {
				peer.Maintain()
			}
		}
		if c.eng.Now()+mi <= end {
			c.eng.After(mi, maintain)
		}
	}
	c.eng.At(start+mi, maintain)
	c.eng.Run(end)
}

// Drain runs the engine until all in-flight events settle or maxExtra
// seconds pass, without injecting new queries. Call after Run to let
// outstanding lookups finish before reading completion metrics.
func (c *Cluster) Drain(maxExtra float64) {
	c.eng.Run(c.eng.Now() + maxExtra)
}

// TotalReplicas sums replicas currently hosted across all peers.
func (c *Cluster) TotalReplicas() int {
	total := 0
	for _, p := range c.peers {
		total += p.ReplicaCount()
	}
	return total
}

// AggregateStats sums per-peer protocol counters.
func (c *Cluster) AggregateStats() core.Stats {
	var agg core.Stats
	for _, p := range c.peers {
		s := p.StatsView()
		agg.Processed += s.Processed
		agg.Resolved += s.Resolved
		agg.Forwarded += s.Forwarded
		agg.FailedTTL += s.FailedTTL
		agg.FailedNoRoute += s.FailedNoRoute
		agg.DigestShortcuts += s.DigestShortcuts
		agg.CacheHits += s.CacheHits
		agg.ContextHops += s.ContextHops
		agg.ReplicaInstalls += s.ReplicaInstalls
		agg.ReplicaEvictions += s.ReplicaEvictions
		agg.SessionsStarted += s.SessionsStarted
		agg.SessionsAborted += s.SessionsAborted
		agg.SessionsOK += s.SessionsOK
		agg.ControlSent += s.ControlSent
		agg.ResultsSent += s.ResultsSent
		agg.StaleSelfPurged += s.StaleSelfPurged
	}
	return agg
}

// LoadSnapshot returns every server's current load (index = server ID).
func (c *Cluster) LoadSnapshot() []float64 {
	out := make([]float64, len(c.stations))
	for i, st := range c.stations {
		out[i] = st.Load()
	}
	return out
}
