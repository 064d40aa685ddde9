package core

import (
	"testing"

	"terradir/internal/namespace"
	"terradir/internal/rng"
)

// TestProtocolInvariantsUnderMessageStorm throws a long stream of randomized
// (and frequently nonsensical or stale) protocol messages at a peer and
// checks, after every step, the invariants soft state must uphold:
//
//   - no panic, ever (arbitrary remote state must not crash a server);
//   - replica count ≤ Frepl × owned (§3.4);
//   - every stored map within Msize, entries unique, advertised prefix sane;
//   - cache within capacity;
//   - owned nodes never evicted;
//   - the peer stays in its own self-maps for hosted nodes.
func TestProtocolInvariantsUnderMessageStorm(t *testing.T) {
	tree := namespace.NewBalanced(3, 6) // 364 nodes
	env := &fakeEnv{}
	cfg := DefaultConfig()
	cfg.ReplFactor = 1.5
	cfg.MapSize = 4
	cfg.CacheSlots = 8
	src := rng.New(2024)
	var owned []NodeID
	for i := 0; i < 12; i++ {
		owned = append(owned, NodeID(src.Intn(tree.Len())))
	}
	p := newTestPeer(t, tree, 0, owned, 1, cfg, env)

	randMap := func() NodeMap {
		var m NodeMap
		for k := 0; k < src.Intn(6); k++ {
			s := ServerID(src.Intn(12))
			if src.Intn(3) == 0 {
				m.AddAdvertised(s, cfg.MapSize)
			} else {
				m.AddRegular(s, cfg.MapSize)
			}
		}
		return m
	}
	randNode := func() NodeID { return NodeID(src.Intn(tree.Len())) }

	check := func(step int) {
		t.Helper()
		if p.ReplicaCount() > int(cfg.ReplFactor*float64(p.OwnedCount())) {
			t.Fatalf("step %d: replica bound violated: %d > %v", step, p.ReplicaCount(),
				cfg.ReplFactor*float64(p.OwnedCount()))
		}
		if p.CacheLen() > cfg.CacheSlots {
			t.Fatalf("step %d: cache overflow: %d", step, p.CacheLen())
		}
		for _, nd := range owned {
			if !p.Hosts(nd) {
				t.Fatalf("step %d: owned node %d lost", step, nd)
			}
		}
		validate := func(where string, m *NodeMap) {
			if m.Len() > cfg.MapSize {
				t.Fatalf("step %d: %s map over Msize: %+v", step, where, m)
			}
			if m.NumAdvertised < 0 || m.NumAdvertised > m.Len() {
				t.Fatalf("step %d: %s advertised prefix broken: %+v", step, where, m)
			}
			seen := map[ServerID]bool{}
			for _, s := range m.Servers {
				if seen[s] {
					t.Fatalf("step %d: %s map duplicate: %+v", step, where, m)
				}
				seen[s] = true
			}
		}
		if len(p.hostedList) != len(p.hosted) {
			t.Fatalf("step %d: hosted map %d, list %d", step, len(p.hosted), len(p.hostedList))
		}
		for i, hn := range p.hostedList {
			if p.hosted[hn.id] != hn {
				t.Fatalf("step %d: hosted slot %d (node %d) is not the map's", step, i, hn.id)
			}
		}
		checkHostedIndexInStep(t, &p.routeView)
		for nd, hn := range p.hosted {
			validate("self", &hn.selfMap)
			if !hn.selfMap.Contains(0) {
				t.Fatalf("step %d: hosted %d self map lost self: %+v", step, nd, hn.selfMap)
			}
		}
		for _, e := range p.neighborMaps {
			validate("neighbor", &e.m)
		}
		p.cache.Each(func(_ NodeID, m *NodeMap) { validate("cache", m) })
	}

	for step := 0; step < 4000; step++ {
		env.now += 0.01
		env.load = src.Float64()
		switch src.Intn(8) {
		case 0, 1, 2: // query with arbitrary path/piggy content
			path := make([]PathEntry, src.Intn(4))
			for i := range path {
				path[i] = PathEntry{Node: randNode(), Map: randMap()}
			}
			q := &QueryMsg{
				QueryID:  uint64(step),
				Dest:     randNode(),
				Source:   ServerID(src.Intn(12)),
				OnBehalf: randNode(),
				Hops:     src.Intn(70),
				PrevDist: int32(src.Intn(20)),
				Path:     path,
				Piggy: Piggyback{
					From: ServerID(src.Intn(12)),
					Load: src.Float64(),
					Adverts: []Advert{
						{Node: randNode(), Servers: []ServerID{ServerID(src.Intn(12))}},
					},
				},
			}
			p.HandleQuery(q)
		case 3: // stale probe reply
			p.HandleControl(&LoadProbeReply{Session: uint64(src.Intn(5)), From: ServerID(src.Intn(12)), Load: src.Float64()})
		case 4: // replicate request with random payloads
			req := &ReplicateRequest{
				Session: uint64(step),
				From:    ServerID(1 + src.Intn(11)),
				Load:    src.Float64(),
				Nodes: []ReplicaPayload{{
					Node:       randNode(),
					SelfMap:    randMap(),
					WeightHint: src.Float64() * 10,
					Neighbors: []NeighborMap{
						{Node: randNode(), Map: randMap()},
					},
				}},
			}
			p.HandleControl(req)
		case 5: // replicate reply (possibly matching nothing)
			p.HandleControl(&ReplicateReply{
				Session:  ServerSession{ID: uint64(src.Intn(10)), From: ServerID(src.Intn(12))},
				Accepted: []NodeID{randNode()},
				Load:     src.Float64(),
			})
		case 6: // result with random content
			p.HandleResult(&ResultMsg{
				QueryID: uint64(step),
				Dest:    randNode(),
				OK:      src.Intn(2) == 0,
				Map:     randMap(),
				Path:    []PathEntry{{Node: randNode(), Map: randMap()}},
			})
		case 7:
			p.Maintain()
			env.advance(0.5)
		}
		env.sent = env.sent[:0]
		if step%50 == 0 {
			check(step)
		}
	}
	check(4000)
}
