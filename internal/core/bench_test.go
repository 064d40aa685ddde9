package core

import (
	"fmt"
	"testing"

	"terradir/internal/bloom"
	"terradir/internal/namespace"
	"terradir/internal/rng"
)

// benchPeer builds a peer hosting ~32 nodes of a 4095-node tree with a
// warmed cache and digest table — the routing hot path's realistic state.
func benchPeer(b *testing.B) (*Peer, *namespace.Tree, *fakeEnv) {
	b.Helper()
	tree := namespace.NewBalanced(2, 12)
	env := &fakeEnv{}
	src := rng.New(1)
	var owned []NodeID
	for i := 0; i < 32; i++ {
		owned = append(owned, NodeID(src.Intn(tree.Len())))
	}
	p, err := NewPeer(0, tree, DefaultConfig(), env, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	ownedSet := map[NodeID]bool{}
	for _, n := range owned {
		p.AddOwned(n, Meta{})
		ownedSet[n] = true
	}
	p.FinishSetup(func(n NodeID) ServerID {
		if ownedSet[n] {
			return 0
		}
		return ServerID(1 + int(n)%63)
	})
	// Warm cache and digest table.
	for i := 0; i < 20; i++ {
		m := NodeMap{Servers: []ServerID{ServerID(1 + i%63)}}
		p.learnMap(NodeID(src.Intn(tree.Len())), &m)
	}
	for s := ServerID(1); s <= 32; s++ {
		other, err := NewPeer(s, tree, DefaultConfig(), &fakeEnv{}, rng.New(uint64(s)))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			other.AddOwned(NodeID(src.Intn(tree.Len())), Meta{})
		}
		other.FinishSetup(func(NodeID) ServerID { return 1 })
		p.storeDigest(s, other.Digest())
	}
	return p, tree, env
}

func BenchmarkHandleQueryForward(b *testing.B) {
	p, tree, env := benchPeer(b)
	src := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := &QueryMsg{
			QueryID:  uint64(i),
			Dest:     NodeID(src.Intn(tree.Len())),
			Source:   5,
			OnBehalf: namespace.Invalid,
		}
		p.HandleQuery(q)
		env.sent = env.sent[:0]
		env.timers = env.timers[:0]
	}
}

// BenchmarkBestCandidate prices the candidate search of one forward at the
// paper's namespace size, by resident hosted nodes per server: the cost must
// follow the destination's depth, not the hosted count.
func BenchmarkBestCandidate(b *testing.B) {
	for _, hosted := range []int{32, 512, 1024, 2048} {
		p, _, _ := publishPeer(b, hosted)
		src := rng.New(9)
		dests := make([]NodeID, 4096)
		for i := range dests {
			// A forward's destination is never resident: decide resolves those.
			for dests[i] = NodeID(src.Intn(p.tree.Len())); p.hosted[dests[i]] != nil; {
				dests[i] = NodeID(src.Intn(p.tree.Len()))
			}
		}
		b.Run(fmt.Sprint(hosted), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.bestCandidate(dests[i%len(dests)], nil)
			}
		})
	}
}

// BenchmarkHostedIndexUpdate prices what a hosted-set change costs the index:
// one node added at the end of the hosting order and another demoted, the
// last entry taking its place (the pair a cold load at the residency cap
// performs). No allocation once the arrays have their capacity.
func BenchmarkHostedIndexUpdate(b *testing.B) {
	for _, hosted := range []int{102, 1024} {
		p, _, order := publishPeer(b, hosted)
		x, tree := &p.index, p.tree
		spare := order[len(order)-1] + 1 // not hosted: hosted ids are multiples of the stride
		b.Run(fmt.Sprint(hosted), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % hosted
				x.add(tree, spare, hosted)
				x.remove(tree, order[j], j, spare)
				order[j], spare = spare, order[j]
			}
		})
	}
}

// BenchmarkDigestShortcut prices the shortcut search of one forward: on
// benchPeer's live view, which tests its 32 digests' filters one by one, and
// on a published view shaped like a wide-unif server's: 63 digests of 8,192
// and 16,384 bits over the 32,767-node namespace, read off the view's
// transposed table.
func BenchmarkDigestShortcut(b *testing.B) {
	b.Run("live", func(b *testing.B) {
		p, tree, _ := benchPeer(b)
		src := rng.New(10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.digestShortcut(NodeID(src.Intn(tree.Len())), 8, p.src, uint64(i)*7)
		}
	})
	b.Run("published-63", func(b *testing.B) {
		p, _, _ := publishPeer(b, 512)
		src := rng.New(10)
		for s := ServerID(1); s <= 63; s++ {
			hosted := 500 + 3*int(s)%24 // either side of 512: 8,192 or 16,384 bits
			f := bloom.New(uint64(p.cfg.DigestBitsPerNode*hosted), uint32(p.cfg.DigestHashes))
			for n := 0; n < hosted; n++ {
				f.Add(NodeKey(NodeID(src.Intn(p.tree.Len()))))
			}
			f.SetVersion(2)
			p.storeDigest(s, f)
		}
		p.PublishSnapshot()
		v := &p.RoutingSnapshot().view
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.digestShortcut(NodeID(src.Intn(p.tree.Len())), 8, p.src, uint64(i)*7)
		}
	})
}

func BenchmarkNodeMapMerge(b *testing.B) {
	src := rng.New(11)
	var in NodeMap
	for s := ServerID(10); s < 16; s++ {
		in.AddRegular(s, 8)
	}
	in.AddAdvertised(99, 8)
	var dst NodeMap
	for s := ServerID(1); s < 8; s++ {
		dst.AddRegular(s, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dst.Clone()
		d.Merge(&in, 8, src, nil)
	}
}

func BenchmarkPiggyback(b *testing.B) {
	p, _, _ := benchPeer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.piggyback()
	}
}

// publishPeer builds a peer owning `hosted` nodes spread over the paper-size
// namespace (32,767 nodes), with a full cache and 31 foreign digests: the
// state a server of bench/'s in-process workloads publishes from.
func publishPeer(b *testing.B, hosted int) (*Peer, *fakeEnv, []NodeID) {
	b.Helper()
	tree := namespace.NewBalanced(2, 15)
	env := &fakeEnv{now: 1}
	p, err := NewPeer(0, tree, DefaultConfig(), env, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	stride := tree.Len() / hosted
	owned := map[NodeID]bool{}
	var ids []NodeID
	for i := 0; i < hosted; i++ {
		n := NodeID(i * stride)
		owned[n] = true
		ids = append(ids, n)
		p.AddOwned(n, Meta{Version: 1})
	}
	p.FinishSetup(func(n NodeID) ServerID {
		if owned[n] {
			return 0
		}
		return ServerID(1 + int(n)%31)
	})
	src := rng.New(3)
	for p.CacheLen() < p.cfg.CacheSlots {
		m := SingleServerMap(ServerID(1 + src.Intn(31)))
		p.learnMap(NodeID(src.Intn(tree.Len())), &m)
	}
	for s := ServerID(1); s <= 31; s++ {
		f := bloom.New(uint64(p.cfg.DigestBitsPerNode*hosted), uint32(p.cfg.DigestHashes))
		f.BumpVersion()
		p.storeDigest(s, f)
	}
	return p, env, ids
}

// BenchmarkPublishSnapshot prices one handled message plus the publish that
// follows it, by what the message changed: nothing the snapshot holds, only
// the sender's load (clean — the rider reads load from a cell, so the
// publish is a no-op), one neighbor map (one-dirty), or the hosted set itself
// (membership-change: a replica installed or evicted). Cost must follow the
// change, not the hosted count. idle is a publish with no message before it.
func BenchmarkPublishSnapshot(b *testing.B) {
	for _, hosted := range []int{512, 2048} {
		p, env, ids := publishPeer(b, hosted)
		p.PublishSnapshot()
		rider := Piggyback{From: 1, Load: 0.3}
		nb := p.tree.Children(ids[1])[0]
		learned := []PathEntry{{Node: nb, Map: SingleServerMap(7)}}
		replica := ReplicaPayload{Node: ids[1] + 1, Meta: Meta{Version: 1}, WeightHint: 1, SelfMap: SingleServerMap(3)}
		run := func(name string, step func(i int)) {
			b.Run(fmt.Sprintf("%s/%d", name, hosted), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					step(i)
					p.PublishSnapshot()
					env.sent = env.sent[:0]
				}
			})
		}
		run("idle", func(int) {})
		run("clean", func(int) { p.FastAbsorb(rider, nil) })
		run("one-dirty", func(i int) {
			// Servers 1–31 have empty digests, which filter them out of
			// every merge; servers past them have none, so the map changes.
			learned[0].Map.Servers[0] = ServerID(32 + i%31)
			p.FastAbsorb(rider, learned)
		})
		run("membership-change", func(i int) {
			p.FastAbsorb(rider, nil)
			if !p.evictReplica(replica.Node) {
				p.InstallReplica(&replica, 3)
			}
		})
	}
}
