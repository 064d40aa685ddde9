package core

import (
	"fmt"
	"reflect"
	"testing"

	"terradir/internal/bloom"
	"terradir/internal/namespace"
	"terradir/internal/rng"
)

// Incremental publication against its oracle (ROADMAP: invariants checked by
// machines). PublishSnapshot re-freezes only what was marked stale; the
// oracle below is the clone-everything freeze it replaced, which needs no
// marks. A seed drives a peer through every mutating entry point, publishing
// at random points; after each publish the published view must equal the
// oracle's image of the live peer, so a write that skips its mark shows up as
// a published entry older than the live one.

// viewImage is a routing view flattened to plain values.
type viewImage struct {
	HostedIDs []NodeID
	Index     hostedIndex // the closest-hosted index over HostedIDs' order
	Hosted    map[NodeID]frozenHosted
	Neighbors map[NodeID]NodeMap
	Cache     []PathEntry // recency order, as the candidate scan walks it
	Digests   []digestEntry
	DigestMap map[ServerID]digestEntry
	Cold      *coldSet
	Rider     ServerID
	Adverts   []Advert // held snapshots only: the rider's
}

// fullFreeze is the oracle: the image of p's live state as the
// clone-everything PublishSnapshot built it until incremental publication
// replaced it. It reads the live containers only, never a published copy.
func fullFreeze(p *Peer) viewImage {
	img := viewImage{
		Index:     p.index.clone(),
		Hosted:    map[NodeID]frozenHosted{},
		Neighbors: map[NodeID]NodeMap{},
		DigestMap: map[ServerID]digestEntry{},
		Cold:      p.cold,
		Rider:     p.ID,
	}
	for _, hn := range p.hostedList {
		img.HostedIDs = append(img.HostedIDs, hn.id)
		img.Hosted[hn.id] = frozenHosted{meta: hn.meta.Clone(), outgoing: p.outgoingMap(hn.id)}
	}
	for nd, e := range p.neighborMaps {
		img.Neighbors[nd] = e.m.Clone()
	}
	for s := p.cache.head; s != lruNil; s = p.cache.slots[s].next {
		img.Cache = append(img.Cache, PathEntry{Node: p.cache.slots[s].node, Map: p.cache.slots[s].m.Clone()})
	}
	for _, e := range p.digestList {
		img.Digests = append(img.Digests, *e)
	}
	for s, e := range p.digests {
		img.DigestMap[s] = *e
	}
	return img
}

// publishedImage reads a snapshot the way the fast path does: containers from
// the snapshot, every entry through its published cell.
func publishedImage(t testing.TB, p *Peer, s *RouteSnapshot) viewImage {
	t.Helper()
	v := &s.view
	if !v.frozen || v.self != p.ID || v.cfg != p.cfg || v.tree != p.tree {
		t.Fatalf("snapshot scalars diverge from the peer's")
	}
	img := viewImage{
		Index:     v.index.clone(),
		Hosted:    map[NodeID]frozenHosted{},
		Neighbors: map[NodeID]NodeMap{},
		DigestMap: map[ServerID]digestEntry{},
		Cold:      v.cold,
		Rider:     s.piggy.From,
	}
	checkHostedIndexInStep(t, v)
	if len(v.index.min) > 0 && len(p.index.min) > 0 && &v.index.min[0] == &p.index.min[0] {
		t.Fatalf("the published index shares its arrays with the loop's")
	}
	for i, hn := range v.hostedList {
		if v.residentNode(hn.id) != hn {
			t.Fatalf("frozen hosted containers disagree at %d (node %d)", i, hn.id)
		}
		img.HostedIDs = append(img.HostedIDs, hn.id)
		meta, out := s.answer(hn)
		if !reflect.DeepEqual(out, s.outgoingMap(hn.id)) {
			t.Fatalf("node %d: answer and outgoingMap disagree", hn.id)
		}
		img.Hosted[hn.id] = frozenHosted{meta: meta, outgoing: out}
	}
	for nd := NodeID(0); int(nd) < p.tree.Len(); nd++ {
		if _, listed := img.Hosted[nd]; (v.residentNode(nd) != nil) != listed {
			t.Fatalf("residentNode(%d) names a node outside hostedList", nd)
		}
	}
	for nd := range v.neighborMaps {
		img.Neighbors[nd] = *v.neighborMap(nd)
	}
	for sl := v.cache.head; sl != lruNil; sl = v.cache.slots[sl].next {
		img.Cache = append(img.Cache, PathEntry{Node: v.cache.slots[sl].node, Map: v.cache.slots[sl].m})
	}
	for _, e := range v.digestList {
		img.Digests = append(img.Digests, *e)
	}
	for sv, e := range v.digests {
		img.DigestMap[sv] = *e
	}
	return img
}

func imagesDiffer(a, b viewImage) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Sprintf("%s:\n published %+v\n live      %+v", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return ""
}

// heldSnapshot is an old snapshot kept across later publishes: the frozen
// values reachable from it at capture time, and a deep copy of each. The
// values must never change; the cells that pointed at them may move on.
type heldSnapshot struct {
	snap      *RouteSnapshot
	hosted    []*frozenHosted
	neighbors []*NodeMap
	copies    viewImage
}

// frozenValues flattens the frozen values a snapshot reached at capture time.
func (h *heldSnapshot) frozenValues() viewImage {
	v := &h.snap.view
	img := viewImage{Hosted: map[NodeID]frozenHosted{}, Neighbors: map[NodeID]NodeMap{}}
	img.Index = v.index.clone()
	for i, f := range h.hosted {
		img.HostedIDs = append(img.HostedIDs, v.hostedList[i].id)
		img.Hosted[v.hostedList[i].id] = frozenHosted{meta: f.meta.Clone(), outgoing: f.outgoing.Clone()}
	}
	for i, m := range h.neighbors {
		img.Neighbors[NodeID(i)] = m.Clone()
	}
	for sl := v.cache.head; sl != lruNil; sl = v.cache.slots[sl].next {
		img.Cache = append(img.Cache, PathEntry{Node: v.cache.slots[sl].node, Map: v.cache.slots[sl].m.Clone()})
	}
	for _, e := range v.digestList {
		img.Digests = append(img.Digests, *e)
	}
	for _, a := range h.snap.piggy.Adverts {
		img.Adverts = append(img.Adverts, Advert{Node: a.Node, Servers: append([]ServerID(nil), a.Servers...)})
	}
	return img
}

func holdSnapshot(s *RouteSnapshot) *heldSnapshot {
	h := &heldSnapshot{snap: s}
	for _, hn := range s.view.hostedList {
		h.hosted = append(h.hosted, hn.pub.Load())
	}
	for _, e := range s.view.neighborMaps { // order is irrelevant: only the values are compared
		h.neighbors = append(h.neighbors, e.pub.Load())
	}
	h.copies = h.frozenValues()
	return h
}

// pubWorld is the peer under test and what the driver needs to poke it.
type pubWorld struct {
	p       *Peer
	env     *fakeEnv
	g       *rng.Source
	owned   map[NodeID]bool
	disk    map[NodeID]HostedMutation // the "index": state as of the last clean epoch
	version uint64                    // digest versions handed out so far
}

func newPubWorld(tb testing.TB, seed uint64) *pubWorld {
	g := rng.New(seed)
	cfg := DefaultConfig()
	cfg.MapSize = 4
	cfg.CacheSlots = 6
	cfg.MaxDigests = 1 + g.Intn(diffServers)
	cfg.MaxHops = 8
	cfg.ReplicaEvictAge = 5
	env := &fakeEnv{now: 10}
	p, err := NewPeer(0, diffTree, cfg, env, rng.New(seed^0x5eed))
	if err != nil {
		tb.Fatal(err)
	}
	w := &pubWorld{p: p, env: env, g: g, owned: map[NodeID]bool{}, disk: map[NodeID]HostedMutation{}, version: 10}
	for k := 2 + g.Intn(6); len(w.owned) < k; {
		if n := w.node(); !w.owned[n] {
			w.owned[n] = true
			p.AddOwned(n, Meta{Version: 1})
		}
	}
	p.FinishSetup(w.ownerOf)
	if g.Intn(2) == 0 {
		p.SetResidency(3+g.Intn(6), 0, nil)
	}
	return w
}

func (w *pubWorld) node() NodeID     { return NodeID(w.g.Intn(diffTree.Len())) }
func (w *pubWorld) server() ServerID { return ServerID(1 + w.g.Intn(diffServers-1)) }

func (w *pubWorld) ownerOf(n NodeID) ServerID {
	if w.owned[n] {
		return 0
	}
	return ServerID(1 + NodeKey(n)%(diffServers-1))
}

func (w *pubWorld) hostedNode() (NodeID, bool) {
	if len(w.p.hostedList) == 0 {
		return 0, false
	}
	return w.p.hostedList[w.g.Intn(len(w.p.hostedList))].id, true
}

func (w *pubWorld) randMap() NodeMap {
	var m NodeMap
	for k := w.g.Intn(4); k > 0; k-- {
		if w.g.Intn(5) == 0 {
			m.AddAdvertised(w.server(), w.p.cfg.MapSize)
		} else {
			m.AddRegular(ServerID(w.g.Intn(diffServers)), w.p.cfg.MapSize)
		}
	}
	return m
}

func (w *pubWorld) path() []PathEntry {
	var path []PathEntry
	for k := w.g.Intn(4); k > 0; k-- {
		n := w.node()
		if w.g.Intn(3) == 0 {
			if h, ok := w.hostedNode(); ok {
				n = h
			}
		}
		path = append(path, PathEntry{Node: n, Map: w.randMap()})
	}
	return path
}

func (w *pubWorld) rider() Piggyback {
	pb := Piggyback{From: w.server(), Load: w.g.Float64()}
	for k := w.g.Intn(3); k > 0; k-- {
		f := bloom.New(256, 3)
		for j := w.g.Intn(8); j > 0; j-- {
			f.Add(NodeKey(w.node()))
		}
		// Mostly newer than anything stored, sometimes older (ignored).
		w.version++
		f.SetVersion(w.version - uint64(w.g.Intn(2)*w.g.Intn(3)))
		pb.Digests = append(pb.Digests, DigestUpdate{Server: w.server(), Digest: f})
	}
	for k := w.g.Intn(3) / 2; k > 0; k-- {
		pb.Adverts = append(pb.Adverts, Advert{Node: w.node(), Servers: []ServerID{w.server()}})
	}
	return pb
}

func (w *pubWorld) payload(n NodeID) ReplicaPayload {
	pl := ReplicaPayload{Node: n, Meta: Meta{Version: uint64(1 + w.g.Intn(4))}, WeightHint: w.g.Float64() * 4, SelfMap: w.randMap()}
	if w.g.Intn(2) == 0 {
		pl.Meta.Attrs = map[string]string{"k": fmt.Sprint(w.g.Intn(9))}
	}
	if par := diffTree.Parent(n); par != namespace.Invalid {
		pl.Neighbors = append(pl.Neighbors, NeighborMap{Node: par, Map: SingleServerMap(w.ownerOf(par))})
	}
	for _, c := range diffTree.Children(n) {
		pl.Neighbors = append(pl.Neighbors, NeighborMap{Node: c, Map: w.randMap()})
	}
	return pl
}

// cleanEpochToDisk plays the persistence tier: a snapshot covers the hosted
// state, after which clean entries may be demoted and loaded back from it.
func (w *pubWorld) cleanEpochToDisk() {
	p := w.p
	gen := p.MarkCleanEpoch()
	for _, rec := range p.ExportHosted() {
		w.disk[rec.Node] = rec
	}
	p.CompleteCleanEpoch(gen)
}

// mutate applies one randomly drawn mutation through a public entry point (or
// the loop-internal one a message would reach).
func (w *pubWorld) mutate() {
	p, g := w.p, w.g
	w.env.now += g.Float64() * 0.3
	w.env.load = g.Float64() * 0.4
	switch g.Intn(19) {
	case 0, 1:
		q := &QueryMsg{QueryID: uint64(g.Intn(1 << 20)), Dest: w.node(), Source: w.server(), OnBehalf: namespace.Invalid,
			Hops: g.Intn(p.cfg.MaxHops), Path: w.path(), Piggy: w.rider()}
		if h, ok := w.hostedNode(); ok && g.Intn(3) == 0 {
			q.OnBehalf = h
		}
		p.HandleQuery(q)
	case 2:
		p.HandleResult(&ResultMsg{Dest: w.node(), OK: g.Intn(2) == 0, Map: w.randMap(), Path: w.path(), Piggy: w.rider()})
	case 3:
		p.FastAbsorb(w.rider(), w.path())
	case 4:
		p.LearnMaps(w.path())
	case 5, 6:
		pl := w.payload(w.node())
		p.InstallReplica(&pl, w.server())
	case 7:
		if h, ok := w.hostedNode(); ok {
			p.evictReplica(h) // refuses owned nodes
		}
	case 8:
		p.PurgeServer(w.server(), w.ownerOf)
	case 9:
		n := w.node()
		if g.Intn(2) == 0 {
			if h, ok := w.hostedNode(); ok {
				n = h
			}
		}
		if !p.AdoptOwnership(n, w.ownerOf) {
			p.ReleaseOwnership(n)
		}
	case 10:
		if h, ok := w.hostedNode(); ok {
			if g.Intn(2) == 0 {
				p.SetMeta(h, map[string]string{"v": fmt.Sprint(g.Intn(100))})
			} else {
				p.SetData(h, []byte{byte(g.Intn(256))})
			}
		}
	case 11:
		rec := HostedMutation{Kind: MutationKind(1 + g.Intn(7)), Node: w.node(), Owned: g.Intn(3) == 0,
			Meta: Meta{Version: uint64(g.Intn(9))}, Map: w.randMap(), Weight: g.Float64()}
		if h, ok := w.hostedNode(); ok && g.Intn(2) == 0 {
			rec.Node = h
		}
		if p.IsCold(rec.Node) {
			break // the overlay materializes a cold node before patching it
		}
		p.ImportHosted(&rec, w.ownerOf)
	case 12:
		if p.ResidencyEnabled() {
			w.cleanEpochToDisk()
			p.EnforceResidency() // demotes clean entries past the cap
		}
	case 13:
		if cold := p.ColdIDs(); len(cold) > 0 {
			id := cold[g.Intn(len(cold))]
			if rec, ok := w.disk[id]; ok {
				p.InstallFromIndex(&rec, w.ownerOf)
			} else {
				p.ClearCold(id)
			}
		}
	case 14:
		if p.ResidencyEnabled() {
			if h, ok := w.hostedNode(); ok && g.Intn(2) == 0 {
				if _, onDisk := w.disk[h]; onDisk {
					p.MarkCold(h, p.hosted[h].owned)
				}
			}
		}
	case 15:
		w.env.now += 1 + g.Float64()*float64(g.Intn(2))*p.cfg.ReplicaEvictAge
		p.Maintain()
		p.BatchTick()
	case 16:
		// The acknowledgement of a replication session this peer opened:
		// accepted nodes gain an advertised host and a pending advert.
		s := w.server()
		p.sess = replSession{id: 7, state: replAwaitReply, candidate: s, tried: map[ServerID]bool{}}
		rep := &ReplicateReply{Session: ServerSession{ID: 7, From: s}, Load: g.Float64(), Piggy: w.rider()}
		for k := 1 + g.Intn(2); k > 0; k-- {
			if h, ok := w.hostedNode(); ok {
				rep.Accepted = append(rep.Accepted, h)
			}
		}
		p.HandleControl(rep)
	case 17:
		p.cache.Put(w.node(), w.randMap())
	case 18:
		p.HandleControl(&LoadProbeMsg{Session: 1, From: w.server(), Piggy: w.rider()})
	}
	w.env.sent, w.env.timers = w.env.sent[:0], w.env.timers[:0]
}

// checkIncrementalPublish is the body shared by the test and the fuzz target.
func checkIncrementalPublish(t *testing.T, seed uint64) {
	t.Helper()
	w := newPubWorld(t, seed)
	p := w.p
	var held *heldSnapshot
	check := func(step int) {
		p.PublishSnapshot()
		s := p.RoutingSnapshot()
		if diff := imagesDiffer(publishedImage(t, p, s), fullFreeze(p)); diff != "" {
			t.Fatalf("seed %d step %d: published view is not the full freeze of the live peer: %s", seed, step, diff)
		}
		if held != nil {
			if diff := imagesDiffer(held.frozenValues(), held.copies); diff != "" {
				t.Fatalf("seed %d step %d: a frozen value changed after publication: %s", seed, step, diff)
			}
		}
	}
	const steps = 160
	holdAt := 1 + w.g.Intn(steps/2)
	for step := 0; step < steps; step++ {
		w.mutate()
		if w.g.Intn(4) == 0 || step == holdAt {
			check(step)
			if step == holdAt {
				held = holdSnapshot(p.RoutingSnapshot())
			}
		}
	}
	check(steps)
}

func TestIncrementalPublishMatchesFullFreeze(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		checkIncrementalPublish(t, seed)
	}
}

func FuzzIncrementalPublish(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkIncrementalPublish)
}

// TestOracleCatchesUnmarkedWrite guards the oracle's power: a write that
// bypasses the edit helpers leaves the published copy behind, and the
// comparison must say so.
func TestOracleCatchesUnmarkedWrite(t *testing.T) {
	w := newPubWorld(t, 3)
	p := w.p
	p.PublishSnapshot()
	for _, e := range p.neighborMaps {
		e.m = SingleServerMap(6) // not through editNeighborMap
		e.m.AddRegular(5, p.cfg.MapSize)
		break
	}
	p.PublishSnapshot()
	if imagesDiffer(publishedImage(t, p, p.RoutingSnapshot()), fullFreeze(p)) == "" {
		t.Fatal("an unmarked neighbor-map write went unnoticed")
	}
}

// TestPublishNothingDirtyAllocatesNothing pins the floor: a publish with
// nothing changed since the last one is a no-op — no allocation, and the
// snapshot pointer stays.
func TestPublishNothingDirtyAllocatesNothing(t *testing.T) {
	w := newPubWorld(t, 5)
	p := w.p
	for i := 0; i < 50; i++ {
		w.mutate()
	}
	p.PublishSnapshot()
	s := p.RoutingSnapshot()
	if n := testing.AllocsPerRun(100, p.PublishSnapshot); n != 0 {
		t.Fatalf("a publish with nothing dirty allocated %v objects", n)
	}
	if p.RoutingSnapshot() != s {
		t.Fatal("a publish with nothing dirty replaced the snapshot")
	}
}
