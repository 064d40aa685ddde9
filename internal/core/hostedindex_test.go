package core

import (
	"testing"

	"terradir/internal/namespace"
	"terradir/internal/rng"
)

// The hosted-set index against its definition (ROADMAP: invariants checked by
// machines). bestCandidate asks the index for the closest hosted node;
// scanHosted finds it, and the candidate, by exhaustion. A seed drives a peer
// through every way the resident set changes and, after each step, compares
// the two on random destinations and skip sets, on the live view and on the
// published one.

// checkHostedIndexInStep verifies that v's index describes v.hostedList
// exactly: one leaf per hosted node, in preorder, keyed by that node's depth
// and hosting position, under inner nodes that are the minima of their
// children.
func checkHostedIndexInStep(t testing.TB, v *routeView) {
	t.Helper()
	x, n := &v.index, len(v.hostedList)
	if len(x.num) != n || len(x.min) != 2*n {
		t.Fatalf("index has %d numbers and %d tree slots for %d hosted nodes", len(x.num), len(x.min), n)
	}
	seen := make([]bool, n)
	for i, num := range x.num {
		if i > 0 && x.num[i-1] >= num {
			t.Fatalf("index numbers not ascending at %d: %v", i, x.num)
		}
		key := x.min[n+i]
		pos := int(key & posMask)
		if pos >= n || seen[pos] {
			t.Fatalf("index leaf %d names hosting position %d of %d, or names it twice", i, pos, n)
		}
		seen[pos] = true
		id := v.hostedList[pos].id
		if v.residentNode(id) != v.hostedList[pos] {
			t.Fatalf("residentNode(%d) is not the node at hosting position %d", id, pos)
		}
		if first, _ := v.tree.PreorderSpan(id); first != num || int(key>>32) != v.tree.Depth(id) {
			t.Fatalf("index leaf %d (number %d, depth %d) is not node %d at hosting position %d (number %d, depth %d)",
				i, num, key>>32, id, pos, first, v.tree.Depth(id))
		}
	}
	for j := n - 1; j > 0; j-- {
		if x.min[j] != min(x.min[2*j], x.min[2*j+1]) {
			t.Fatalf("index inner node %d is not the minimum of its children", j)
		}
	}
	if v.residentNode(namespace.Invalid) != nil || v.residentNode(NodeID(v.tree.Len())) != nil {
		t.Fatalf("residentNode finds an id that is no node of the tree")
	}
}

// scanCandidate is bestCandidate with the hosted half done by scanHosted.
func scanCandidate(v *routeView, dest NodeID, skip map[NodeID]bool) (cand NodeID, m *NodeMap, dist int, viaCache bool, closest *hostedNode) {
	cand, m, dist, closest = v.scanHosted(dest, skip)
	for s := v.cache.head; s != lruNil; s = v.cache.slots[s].next {
		e := &v.cache.slots[s]
		if e.m.Len() == 0 || skip[e.node] {
			continue
		}
		if d := v.tree.Distance(e.node, dest); d < dist {
			cand, m, dist, viaCache = e.node, &e.m, d, true
		}
	}
	return cand, m, dist, viaCache, closest
}

var indexTrees = func() []*namespace.Tree {
	star := make([]int32, 60)
	labels := make([]string, len(star))
	star[0] = -1
	for i := range labels {
		labels[i] = string(rune('A' + i))
	}
	starTree, err := namespace.NewFromParents(star, labels)
	if err != nil {
		panic(err)
	}
	var path namespace.Builder
	for cur, i := path.AddRoot(""), 1; i < 40; i++ {
		cur = path.AddChild(cur, "c")
	}
	return []*namespace.Tree{
		namespace.NewBalanced(2, 10),
		namespace.BuildFileSystem(rng.New(4), namespace.FileSystemParams{TargetNodes: 1500, MaxDepth: 9, DirFraction: 0.3, MeanDirFanout: 5}),
		path.Build(),
		starTree,
	}
}()

// checkHostedIndex is the body shared by TestHostedIndexMatchesScan and
// FuzzHostedIndex.
func checkHostedIndex(t *testing.T, seed uint64) {
	t.Helper()
	g := rng.New(seed)
	tree := indexTrees[g.Intn(len(indexTrees))]
	cfg := DefaultConfig()
	cfg.CacheSlots = 6
	p, err := NewPeer(0, tree, cfg, &fakeEnv{now: 1}, rng.New(seed^0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	// Residency on, so that nodes can go cold; the cap bites only where a cold
	// install enforces it (the add-then-demote sequence).
	p.SetResidency(2+g.Intn(12), nil)
	ownerOf := func(n NodeID) ServerID { return ServerID(1 + int(n)%7) }
	node := func() NodeID { return NodeID(g.Intn(tree.Len())) }
	resident := func() *hostedNode { return p.hostedList[g.Intn(len(p.hostedList))] }

	compare := func(step int, v *routeView) {
		checkHostedIndexInStep(t, v)
		for i := 0; i < 32; i++ {
			dest := node()
			switch cold := p.ColdIDs(); {
			case i%8 == 0 && len(cold) > 0:
				dest = cold[g.Intn(len(cold))] // hosted, but not in the resident set
			case i%8 == 1 && len(v.hostedList) > 0:
				dest = v.hostedList[g.Intn(len(v.hostedList))].id // distance zero: no next hop
			}
			if !v.frozen && v.residentNode(dest) != p.hosted[dest] {
				t.Fatalf("seed %d step %d: residentNode(%d) disagrees with the loop's id map", seed, step, dest)
			}
			// The index itself, before bestCandidate's fallback can cover for it.
			wantPos, wantDist := -1, 0
			for j, hn := range v.hostedList {
				if d := tree.Distance(hn.id, dest); wantPos < 0 || d < wantDist {
					wantPos, wantDist = j, d
				}
			}
			if pos, dist := v.index.closest(tree, dest); pos != wantPos || dist != wantDist {
				t.Fatalf("seed %d step %d frozen=%v dest %d: index says hosting position %d at distance %d, scan %d at %d",
					seed, step, v.frozen, dest, pos, dist, wantPos, wantDist)
			}
			var skip map[NodeID]bool
			if g.Intn(2) == 0 {
				skip = map[NodeID]bool{node(): true}
				if wantPos >= 0 && g.Intn(2) == 0 {
					// The winner's own next hop: the case the index cannot answer.
					skip[tree.NextHopToward(v.hostedList[wantPos].id, dest)] = true
				}
				if len(v.hostedList) > 0 && g.Intn(2) == 0 {
					skip[tree.NextHopToward(v.hostedList[g.Intn(len(v.hostedList))].id, dest)] = true
				}
			}
			c1, m1, d1, via1, h1 := v.bestCandidate(dest, skip)
			c2, m2, d2, via2, h2 := scanCandidate(v, dest, skip)
			if c1 != c2 || m1 != m2 || d1 != d2 || via1 != via2 || h1 != h2 {
				t.Fatalf("seed %d step %d frozen=%v dest %d skip %v:\n index %d %p %d %v %p\n scan  %d %p %d %v %p",
					seed, step, v.frozen, dest, skip, c1, m1, d1, via1, h1, c2, m2, d2, via2, h2)
			}
		}
	}
	check := func(step int) {
		compare(step, &p.routeView)
		p.PublishSnapshot()
		compare(step, &p.RoutingSnapshot().view)
	}

	check(0) // nothing hosted
	for step := 1; step <= 100; step++ {
		switch op := g.Intn(10); {
		case op < 3 || len(p.hostedList) == 0: // host a node: owned, or a replica
			n := node()
			if p.Hosts(n) {
				break
			}
			if g.Intn(2) == 0 {
				p.AddOwned(n, Meta{Version: 1})
			} else {
				p.addHosted(&hostedNode{id: n, selfMap: SingleServerMap(0), ref: true})
			}
			p.initNeighbors(p.hosted[n], ownerOf)
		case op == 3: // evict a replica: the tail of the hosting order shifts down
			p.evictReplica(resident().id)
		case op == 4: // demote: the last entry takes the hole
			p.demoteToCold(g.Intn(len(p.hostedList)))
		case op == 5: // cold install, then the cap: an add and a run of demotions
			if g.Intn(2) == 0 {
				cleanEpoch(p) // what is resident becomes evictable
			}
			if cold := p.ColdIDs(); len(cold) > 0 {
				id := cold[g.Intn(len(cold))]
				rec := HostedMutation{Kind: MutUpsert, Node: id, Owned: p.cold.hasOwned(id), Meta: Meta{Version: 1}, Map: SingleServerMap(0)}
				if !p.InstallFromIndex(&rec, ownerOf) {
					t.Fatalf("seed %d step %d: cold install of %d refused", seed, step, id)
				}
			}
		case op == 6: // the whole resident set leaves, in random order
			for len(p.hostedList) > 0 {
				p.demoteToCold(g.Intn(len(p.hostedList)))
			}
		case op == 7: // a neighbor map loses its entries: that next hop is unusable
			for _, nb := range resident().neighborIDs {
				if g.Intn(2) == 0 {
					*p.editNeighborMap(p.neighborMaps[nb]) = NodeMap{}
				}
			}
		case op == 8: // and gets some back
			for _, nb := range resident().neighborIDs {
				*p.editNeighborMap(p.neighborMaps[nb]) = SingleServerMap(ownerOf(nb))
			}
		case op == 9: // a cached pointer, sometimes closer than any context hop
			if n := node(); !p.Hosts(n) && p.neighborMaps[n] == nil {
				p.cache.Put(n, SingleServerMap(ownerOf(n)))
			}
		}
		check(step)
	}
}

func TestHostedIndexMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		checkHostedIndex(t, seed)
	}
}

func FuzzHostedIndex(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkHostedIndex)
}
