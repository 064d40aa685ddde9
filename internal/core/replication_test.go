package core

import (
	"testing"
)

// hotColdNet builds a 3-server net where server 0 owns the top of the tree
// (the hierarchical bottleneck) and knows server 2's load.
func hotColdNet(t *testing.T, cfg Config) (*miniNet, map[string]NodeID) {
	tree, ids := paperTree()
	own := make([][]NodeID, 3)
	own[0] = []NodeID{ids["/u"], ids["/u/pub"], ids["/u/priv"]}
	own[1] = []NodeID{ids["/u/pub/people"], ids["/u/pub/people/faculty"], ids["/u/pub/people/students"],
		ids["/u/pub/people/faculty/John"], ids["/u/pub/people/students/Steve"]}
	own[2] = []NodeID{ids["/u/priv/people"], ids["/u/priv/people/staff"], ids["/u/priv/people/students"],
		ids["/u/priv/people/staff/Ann"], ids["/u/priv/people/students/Lisa"], ids["/u/priv/people/students/Mary"]}
	return newMiniNet(t, tree, own, cfg), ids
}

func TestReplicationSessionEndToEnd(t *testing.T) {
	n, ids := hotColdNet(t, DefaultConfig())
	p0 := n.peers[0]
	// Heat server 0's ranking and load; cool server 2.
	for i := 0; i < 10; i++ {
		p0.touchNode(p0.hosted[ids["/u"]])
	}
	n.envs[0].load = 0.95
	n.envs[2].load = 0.05
	p0.recordLoad(2, 0.05)

	installed := map[NodeID]bool{}
	n.peers[2].Hooks.OnReplicaInstalled = func(node NodeID, from ServerID) {
		if from != 0 {
			t.Errorf("install attributed to %d", from)
		}
		installed[node] = true
	}
	p0.afterQuery() // trigger check (§3.3 step 1)
	if !p0.SessionActive() {
		t.Fatal("session did not start above Thigh")
	}
	n.deliverAll() // probe -> reply -> request -> reply
	if p0.SessionActive() {
		t.Fatal("session did not finish")
	}
	if p0.StatsView().SessionsOK != 1 {
		t.Fatalf("SessionsOK = %d", p0.StatsView().SessionsOK)
	}
	if !installed[ids["/u"]] {
		t.Fatalf("top-ranked node not replicated: %v", installed)
	}
	if !n.peers[2].HostsReplica(ids["/u"]) {
		t.Fatal("replica not hosted at destination")
	}
	// Advertisement: the owner's map for /u now lists server 2 first.
	m := p0.mapFor(ids["/u"])
	if m.Servers[0] != 2 || m.NumAdvertised < 1 {
		t.Fatalf("new replica not advertised in owner map: %+v", m)
	}
	// Hysteresis: source bias negative, destination bias positive.
	if p0.loadBias >= 0 {
		t.Fatalf("source bias = %v, want negative", p0.loadBias)
	}
	if n.peers[2].loadBias <= 0 {
		t.Fatalf("dest bias = %v, want positive", n.peers[2].loadBias)
	}
}

func TestReplicationBelowThreshold(t *testing.T) {
	n, _ := hotColdNet(t, DefaultConfig())
	p0 := n.peers[0]
	n.envs[0].load = 0.5 // below Thigh
	p0.recordLoad(2, 0.05)
	p0.afterQuery()
	if p0.SessionActive() || p0.StatsView().SessionsStarted != 0 {
		t.Fatal("session started below Thigh")
	}
}

func TestReplicationDisabledNoSessions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationEnabled = false
	n, _ := hotColdNet(t, cfg)
	p0 := n.peers[0]
	n.envs[0].load = 0.99
	p0.recordLoad(2, 0.01)
	p0.afterQuery()
	if p0.SessionActive() {
		t.Fatal("session started with replication disabled")
	}
}

func TestReplicationGossipPreFilter(t *testing.T) {
	// When every known load is within DeltaMin of ours, no probe is sent.
	n, _ := hotColdNet(t, DefaultConfig())
	p0 := n.peers[0]
	n.envs[0].load = 0.95
	p0.recordLoad(1, 0.92)
	p0.recordLoad(2, 0.9)
	p0.afterQuery()
	if p0.SessionActive() {
		t.Fatal("session should have aborted on the gossip pre-filter")
	}
	if p0.StatsView().ControlSent != 0 {
		t.Fatalf("%d control messages sent despite pre-filter", p0.StatsView().ControlSent)
	}
	if p0.StatsView().SessionsAborted != 1 {
		t.Fatalf("SessionsAborted = %d", p0.StatsView().SessionsAborted)
	}
}

func TestReplicationDestinationRefusesSmallGap(t *testing.T) {
	n, ids := hotColdNet(t, DefaultConfig())
	p0 := n.peers[0]
	for i := 0; i < 5; i++ {
		p0.touchNode(p0.hosted[ids["/u"]])
	}
	n.envs[0].load = 0.95
	n.envs[2].load = 0.9 // real load high, gossip stale-low
	p0.recordLoad(2, 0.05)
	p0.afterQuery()
	n.deliverAll()
	// Probe reply reveals ld=0.9: gap < DeltaMin -> attempt fails; with no
	// other candidates the session aborts.
	if p0.SessionActive() {
		t.Fatal("session still active")
	}
	if p0.StatsView().SessionsOK != 0 {
		t.Fatal("session succeeded despite small gap")
	}
	if n.peers[2].ReplicaCount() != 0 {
		t.Fatal("replica installed despite refusal")
	}
}

func TestReplicationCooldown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationCooldown = 5
	n, _ := hotColdNet(t, cfg)
	p0 := n.peers[0]
	n.envs[0].load = 0.95
	p0.recordLoad(1, 0.91) // pre-filter abort
	p0.afterQuery()
	if p0.StatsView().SessionsStarted != 1 {
		t.Fatal("first session missing")
	}
	p0.afterQuery() // within cooldown: no new session
	if p0.StatsView().SessionsStarted != 1 {
		t.Fatal("cooldown not enforced")
	}
	n.advance(6)
	p0.afterQuery()
	if p0.StatsView().SessionsStarted != 2 {
		t.Fatal("session not restarted after cooldown")
	}
}

func TestReplicationProbeTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationAttempts = 1
	n, _ := hotColdNet(t, cfg)
	p0 := n.peers[0]
	n.envs[0].load = 0.95
	p0.recordLoad(2, 0.05)
	p0.afterQuery()
	if !p0.SessionActive() {
		t.Fatal("session not started")
	}
	// Drop the probe (do not deliver); advance past the timeout.
	n.inflight = nil
	n.advance(cfg.ProbeTimeout + 0.1)
	if p0.SessionActive() {
		t.Fatal("session not aborted after probe timeout")
	}
	if p0.StatsView().SessionsAborted != 1 {
		t.Fatalf("SessionsAborted = %d", p0.StatsView().SessionsAborted)
	}
}

func TestKSelectionCoversLoadGap(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{load: 0.9}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"], ids["/u/priv"]}, 1, DefaultConfig(), env)
	// Weights: /u = 60, /u/pub = 30, /u/priv = 10.
	for i := 0; i < 60; i++ {
		p.touchNode(p.hosted[ids["/u"]])
	}
	for i := 0; i < 30; i++ {
		p.touchNode(p.hosted[ids["/u/pub"]])
	}
	for i := 0; i < 10; i++ {
		p.touchNode(p.hosted[ids["/u/priv"]])
	}
	// ls=0.9, ld=0.1: target share = (0.9-0.1)/(2*0.9) = 0.444 -> top-1
	// (0.6 share) covers it.
	payload := p.selectReplicationPayload(0.9, 0.1, 5)
	if len(payload) != 1 || payload[0].Node != ids["/u"] {
		t.Fatalf("payload = %+v", payload)
	}
	// ls=0.9, ld=0.0 w/ DeltaMin... target = 0.5: still top-1 (0.6 >= 0.5).
	payload = p.selectReplicationPayload(0.9, 0, 5)
	if len(payload) != 1 {
		t.Fatalf("payload size = %d", len(payload))
	}
	// Artificially require a bigger share by shrinking the top node weight:
	// make weights nearly equal; target 0.444 then needs 2 of 3 nodes.
	p2 := newTestPeer(t, tree, 2, []NodeID{ids["/u"], ids["/u/pub"], ids["/u/priv"]}, 1, DefaultConfig(), env)
	for _, id := range []NodeID{ids["/u"], ids["/u/pub"], ids["/u/priv"]} {
		p2.touchNode(p2.hosted[id])
	}
	payload = p2.selectReplicationPayload(0.9, 0.1, 5)
	if len(payload) != 2 {
		t.Fatalf("equal-weight payload size = %d, want 2", len(payload))
	}
	if payload[0].WeightHint <= 0 {
		t.Fatal("weight hint missing")
	}
}

func TestKSelectionZeroWeights(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{load: 0.9}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"]}, 1, DefaultConfig(), env)
	payload := p.selectReplicationPayload(0.9, 0.1, 5)
	if len(payload) != 1 {
		t.Fatalf("zero-weight payload size = %d, want 1", len(payload))
	}
}

func TestInstallReplicaRespectsFrepl(t *testing.T) {
	tree, ids := paperTree()
	cfg := DefaultConfig()
	cfg.ReplFactor = 1 // 1 owned node -> at most 1 replica
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, cfg, env)
	pl1 := ReplicaPayload{Node: ids["/u/pub"], SelfMap: SingleServerMap(1), WeightHint: 5}
	pl2 := ReplicaPayload{Node: ids["/u/priv"], SelfMap: SingleServerMap(1), WeightHint: 1}
	if !p.installReplica(&pl1, 1) {
		t.Fatal("first install failed")
	}
	// Colder than resident: refused, no thrash.
	if p.installReplica(&pl2, 1) {
		t.Fatal("colder replica displaced a hotter resident")
	}
	if p.ReplicaCount() != 1 || !p.HostsReplica(ids["/u/pub"]) {
		t.Fatal("resident set wrong")
	}
	// Hotter than resident: displaces it.
	pl3 := ReplicaPayload{Node: ids["/u/priv/people"], SelfMap: SingleServerMap(1), WeightHint: 50}
	if !p.installReplica(&pl3, 1) {
		t.Fatal("hotter replica refused")
	}
	if p.ReplicaCount() != 1 || !p.HostsReplica(ids["/u/priv/people"]) || p.HostsReplica(ids["/u/pub"]) {
		t.Fatal("displacement wrong")
	}
	if p.StatsView().ReplicaEvictions != 1 {
		t.Fatalf("evictions = %d", p.StatsView().ReplicaEvictions)
	}
}

func TestInstallReplicaZeroFrepl(t *testing.T) {
	tree, ids := paperTree()
	cfg := DefaultConfig()
	cfg.ReplFactor = 0
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, cfg, &fakeEnv{})
	pl := ReplicaPayload{Node: ids["/u/pub"], SelfMap: SingleServerMap(1), WeightHint: 5}
	if p.installReplica(&pl, 1) {
		t.Fatal("install succeeded with Frepl=0")
	}
}

func TestInstallReplicaFractionalFrepl(t *testing.T) {
	tree, ids := paperTree()
	cfg := DefaultConfig()
	cfg.ReplFactor = 0.5 // 4 owned -> 2 replicas
	p := newTestPeer(t, tree, 0,
		[]NodeID{ids["/u"], ids["/u/pub"], ids["/u/priv"], ids["/u/pub/people"]}, 1, cfg, &fakeEnv{})
	nodes := []NodeID{ids["/u/priv/people"], ids["/u/priv/people/staff"], ids["/u/priv/people/students"]}
	installed := 0
	for _, nd := range nodes {
		pl := ReplicaPayload{Node: nd, SelfMap: SingleServerMap(1), WeightHint: 1}
		if p.installReplica(&pl, 1) {
			installed++
		}
	}
	if p.ReplicaCount() != 2 {
		t.Fatalf("replica count = %d, want 2 (Frepl=0.5 × 4 owned)", p.ReplicaCount())
	}
}

func TestInstallReplicaRefreshesExisting(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	pl := ReplicaPayload{
		Node: ids["/u/pub"], SelfMap: SingleServerMap(1), WeightHint: 5,
		Meta: Meta{Version: 1, Attrs: map[string]string{"a": "1"}},
	}
	if !p.installReplica(&pl, 1) {
		t.Fatal("install failed")
	}
	// Refresh with newer meta: not a new install, meta updated.
	pl2 := ReplicaPayload{
		Node: ids["/u/pub"], SelfMap: NodeMap{Servers: []ServerID{1, 3}}, WeightHint: 5,
		Meta: Meta{Version: 2, Attrs: map[string]string{"a": "2"}},
	}
	if p.installReplica(&pl2, 1) {
		t.Fatal("refresh counted as new install")
	}
	m, _ := p.MetaOf(ids["/u/pub"])
	if m.Version != 2 || m.Attrs["a"] != "2" {
		t.Fatalf("meta not refreshed: %+v", m)
	}
	// Older meta must not regress.
	pl3 := ReplicaPayload{
		Node: ids["/u/pub"], SelfMap: SingleServerMap(1),
		Meta: Meta{Version: 1, Attrs: map[string]string{"a": "old"}},
	}
	p.installReplica(&pl3, 1)
	m, _ = p.MetaOf(ids["/u/pub"])
	if m.Version != 2 {
		t.Fatal("older meta regressed a replica")
	}
}

func TestInstallReplicaNeighborContext(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	pl := ReplicaPayload{
		Node: ids["/u/priv/people"], SelfMap: SingleServerMap(2), WeightHint: 5,
		Neighbors: []NeighborMap{
			{Node: ids["/u/priv"], Map: SingleServerMap(2)},
			{Node: ids["/u/priv/people/staff"], Map: SingleServerMap(4)},
			{Node: ids["/u/priv/people/students"], Map: SingleServerMap(4)},
		},
	}
	if !p.installReplica(&pl, 2) {
		t.Fatal("install failed")
	}
	// Routing through the replica must be functionally equivalent to the
	// original (§2.3 constraint 2): context present for all neighbors.
	for _, nb := range []NodeID{ids["/u/priv"], ids["/u/priv/people/staff"], ids["/u/priv/people/students"]} {
		if m := p.mapFor(nb); m == nil || m.Len() == 0 {
			t.Fatalf("neighbor context for %d missing", nb)
		}
	}
	// Self must appear in the replica's own map.
	if m := p.mapFor(ids["/u/priv/people"]); !m.Contains(0) {
		t.Fatal("replica self map missing self")
	}
}

func TestReplicateRequestHandlerRejectsOnLoad(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{load: 0.8}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), env)
	req := &ReplicateRequest{
		Session: 1, From: 3, Load: 0.85, // gap 0.05 < DeltaMin
		Nodes: []ReplicaPayload{{Node: ids["/u/pub"], SelfMap: SingleServerMap(3), WeightHint: 1}},
		Piggy: Piggyback{From: 3, Load: 0.85},
	}
	p.HandleControl(req)
	sent := env.take()
	if len(sent) != 1 {
		t.Fatalf("messages sent: %d", len(sent))
	}
	rep := sent[0].msg.(*ReplicateReply)
	if len(rep.Accepted) != 0 {
		t.Fatal("request accepted despite small gap")
	}
	if p.ReplicaCount() != 0 {
		t.Fatal("replica installed despite refusal")
	}
}

func TestLoadProbeReplyIgnoredWhenStale(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{load: 0.9}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), env)
	// Reply for a session that does not exist: ignored without panic.
	p.HandleControl(&LoadProbeReply{Session: 99, From: 4, Load: 0.1})
	if p.SessionActive() {
		t.Fatal("stale reply activated a session")
	}
}

func TestSessionTimeoutIgnoredAfterCompletion(t *testing.T) {
	n, ids := hotColdNet(t, DefaultConfig())
	p0 := n.peers[0]
	for i := 0; i < 5; i++ {
		p0.touchNode(p0.hosted[ids["/u"]])
	}
	n.envs[0].load = 0.95
	n.envs[2].load = 0.05
	p0.recordLoad(2, 0.05)
	p0.afterQuery()
	n.deliverAll() // completes the session
	aborted := p0.StatsView().SessionsAborted
	n.advance(10) // fire the stale timeout
	if p0.StatsView().SessionsAborted != aborted {
		t.Fatal("stale timeout aborted a finished session")
	}
}

func TestBuildPayloadSnapshotIsolated(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	pl := p.buildPayload(p.hosted[ids["/u"]])
	pl.SelfMap.AddRegular(42, 8)
	if p.mapFor(ids["/u"]).Contains(42) {
		t.Fatal("payload aliases live map")
	}
	if len(pl.Neighbors) == 0 {
		t.Fatal("payload missing neighbor context")
	}
}

func TestDigestSaysHostsSkipsKnownHosts(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{load: 0.9}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"]}, 1, DefaultConfig(), env)
	for i := 0; i < 9; i++ {
		p.touchNode(p.hosted[ids["/u"]])
	}
	p.touchNode(p.hosted[ids["/u/pub"]])
	// Destination 5 already hosts /u (per its digest): payload must skip it.
	other := newTestPeer(t, tree, 5, []NodeID{ids["/u/priv"]}, 1, DefaultConfig(), &fakeEnv{})
	other.AddOwned(ids["/u"], Meta{}) // cheat: host /u too
	other.FinishSetup(func(NodeID) ServerID { return 1 })
	p.storeDigest(5, other.Digest())
	payload := p.selectReplicationPayload(0.9, 0.1, 5)
	for _, pl := range payload {
		if pl.Node == ids["/u"] {
			t.Fatal("payload includes a node the destination already hosts")
		}
	}
	if len(payload) == 0 {
		t.Fatal("payload empty")
	}
}

func TestAdaptiveThighSuppressesSessionsNearCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveThigh = true
	n, _ := hotColdNet(t, cfg)
	p0 := n.peers[0]
	// Everyone is hot: estimated system utilization ≈ 0.9.
	n.envs[0].load = 0.92
	p0.recordLoad(1, 0.9)
	p0.recordLoad(2, 0.88)
	p0.Maintain() // refresh the system-load estimate
	p0.afterQuery()
	if p0.StatsView().SessionsStarted != 0 {
		t.Fatal("session started despite system-wide saturation under adaptive Thigh")
	}
	// A genuinely imbalanced server still triggers: others are cold.
	cfg2 := DefaultConfig()
	cfg2.AdaptiveThigh = true
	n2, _ := hotColdNet(t, cfg2)
	q0 := n2.peers[0]
	n2.envs[0].load = 0.92
	q0.recordLoad(1, 0.1)
	q0.recordLoad(2, 0.15)
	q0.Maintain()
	q0.afterQuery()
	if q0.StatsView().SessionsStarted != 1 {
		t.Fatal("imbalanced server did not trigger under adaptive Thigh")
	}
}
