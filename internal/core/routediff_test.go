package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"terradir/internal/bloom"
	"terradir/internal/namespace"
	"terradir/internal/rng"
	"terradir/internal/telemetry"
)

// Differential test of the routing decision's two executors (ROADMAP: "fast
// path ≡ loop path on identical state", checked by a machine). A seed builds
// a peer in a random routing state and a query; the same seed always builds
// the same pair, so twins can be run through either executor and compared.

var diffTree = namespace.NewBalanced(2, 7) // 127 nodes, depth 0..6

const diffServers = 8 // self is 0

// diffWorld builds the peer, its clock and a query for seed.
func diffWorld(tb testing.TB, seed uint64) (*Peer, *fakeEnv, *QueryMsg) {
	tb.Helper()
	g := rng.New(seed)
	pick := func(xs ...int) int { return xs[g.Intn(len(xs))] }
	node := func() NodeID { return NodeID(g.Intn(diffTree.Len())) }
	server := func() ServerID { return ServerID(1 + g.Intn(diffServers-1)) }
	salt := NodeID(g.Intn(1 << 16))
	owner := func(n NodeID) ServerID { return ServerID(1 + NodeKey(n^salt)%(diffServers-1)) }

	cfg := DefaultConfig()
	cfg.MaxHops = 8
	cfg.CacheSlots = 6
	cfg.MapSize = 4
	cfg.ReplicationEnabled = false
	cfg.DigestsEnabled = g.Intn(4) != 0
	cfg.PathPropagation = g.Intn(2) == 0
	cfg.DigestScanPerHop = pick(0, 2, 5)
	cfg.DigestShortcutLevels = pick(0, 2)
	cfg.MaxPathEntries = pick(0, 1, 2, 3, 8)

	env := &fakeEnv{now: 10}
	p, err := NewPeer(0, diffTree, cfg, env, rng.New(seed^0x5eed))
	if err != nil {
		tb.Fatal(err)
	}
	owned := map[NodeID]bool{}
	for k := 1 + g.Intn(6); len(owned) < k; {
		n := node()
		if !owned[n] {
			owned[n] = true
			meta := Meta{Version: 1}
			if g.Intn(2) == 0 {
				meta.Attrs = map[string]string{"n": fmt.Sprint(n)}
			}
			p.AddOwned(n, meta)
		}
	}
	ownerOf := func(n NodeID) ServerID {
		if owned[n] {
			return 0
		}
		return owner(n)
	}
	p.FinishSetup(ownerOf)
	for r := g.Intn(3); r > 0; r-- {
		n := node()
		pl := ReplicaPayload{Node: n, Meta: Meta{Version: 2}, WeightHint: 1,
			SelfMap: NodeMap{Servers: []ServerID{owner(n)}}}
		if par := diffTree.Parent(n); par != namespace.Invalid {
			pl.Neighbors = append(pl.Neighbors, NeighborMap{Node: par, Map: SingleServerMap(ownerOf(par))})
		}
		for _, c := range diffTree.Children(n) {
			pl.Neighbors = append(pl.Neighbors, NeighborMap{Node: c, Map: SingleServerMap(ownerOf(c))})
		}
		p.InstallReplica(&pl, owner(n))
	}

	// Digests: most servers advertise one; each misses about half the nodes
	// the maps credit it with (stale map entries, refuted) and claims a few
	// it is credited with nowhere (shortcut hits, some of them stale).
	for s := ServerID(1); s < diffServers; s++ {
		if g.Intn(4) == 0 {
			continue // unknown digest: permissive
		}
		f := bloom.New(512, 3)
		for n := NodeID(0); int(n) < diffTree.Len(); n++ {
			if (owner(n) == s && g.Intn(2) == 0) || g.Intn(12) == 0 {
				f.Add(NodeKey(n))
			}
		}
		f.BumpVersion()
		p.storeDigest(s, f)
	}

	randMap := func() NodeMap {
		switch g.Intn(6) {
		case 0:
			return NodeMap{}
		case 1:
			return SingleServerMap(0) // only ourselves: never pickable
		}
		var m NodeMap
		for k := 1 + g.Intn(3); k > 0; k-- {
			m.AddRegular(server(), cfg.MapSize)
		}
		return m
	}
	var nbs []NodeID
	for nb := range p.neighborMaps {
		nbs = append(nbs, nb)
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
	for _, nb := range nbs {
		if g.Intn(3) == 0 {
			p.neighborMaps[nb].m = randMap()
		}
	}
	for c := g.Intn(cfg.CacheSlots + 1); c > 0; c-- {
		n := node()
		if _, nb := p.neighborMaps[n]; !nb && !p.Hosts(n) {
			p.cache.Put(n, randMap())
		}
	}

	var cold []NodeID
	if g.Intn(4) == 0 {
		p.SetResidency(1000, nil)
		for k := 1 + g.Intn(2); k > 0 && len(p.hostedList) > 1; k-- {
			hn := p.hostedList[g.Intn(len(p.hostedList))]
			cold = append(cold, hn.id)
			p.MarkCold(hn.id, hn.owned)
		}
	}

	hosted := func() NodeID { return p.hostedList[g.Intn(len(p.hostedList))].id }
	q := &QueryMsg{
		QueryID:    uint64(1 + g.Intn(1000)),
		Dest:       node(),
		Source:     3,
		OnBehalf:   namespace.Invalid,
		Hops:       pick(0, cfg.MaxHops/2, cfg.MaxHops, g.Intn(cfg.MaxHops)),
		Started:    1.5,
		PrevDist:   int32(g.Intn(8)),
		SpanBudget: int32(pick(0, 1, 4)),
		Enqueued:   9.5,
		ServedAt:   9.75,
		Piggy:      Piggyback{From: NoServer},
	}
	switch g.Intn(8) {
	case 0:
		q.Dest = hosted()
	case 1:
		if len(cold) > 0 {
			q.Dest = cold[0]
		}
	}
	switch g.Intn(4) {
	case 0:
		q.OnBehalf = hosted()
	case 1:
		q.OnBehalf = node()
	case 2:
		if len(cold) > 0 {
			q.OnBehalf = cold[len(cold)-1]
		}
	}
	// Path entries carry empty maps and the rider names no sender, so the
	// loop's absorption before deciding changes nothing the decision reads.
	for k := g.Intn(5); k > 0; k-- {
		q.Path = append(q.Path, PathEntry{Node: node()})
	}
	if g.Intn(3) != 0 {
		q.TraceID = 77
		for k := g.Intn(3); k > 0; k-- {
			q.Spans = append(q.Spans, telemetry.Span{Seq: int32(k), Server: int32(server())})
		}
	}
	return p, env, q
}

func cloneQuery(q *QueryMsg) *QueryMsg {
	c := *q
	c.Path = append([]PathEntry(nil), q.Path...)
	c.Spans = append([]telemetry.Span(nil), q.Spans...)
	return &c
}

// comparableMsg renders a message without what the executors legitimately
// differ in (the rider: a fresh draw on the loop, frozen at publication on the
// fast path); printing also flattens empty-versus-nil slices.
func comparableMsg(m Message) string {
	switch x := m.(type) {
	case *QueryMsg:
		c := *x
		c.Piggy = Piggyback{}
		return fmt.Sprintf("query %+v", c)
	case *ResultMsg:
		c := *x
		c.Piggy = Piggyback{}
		return fmt.Sprintf("result %+v", c)
	case *TraceSpanMsg:
		return fmt.Sprintf("span %d %+v", x.TraceID, x.Span)
	}
	return fmt.Sprintf("%T", m)
}

// checkRouteDecision is the body shared by TestRouteDecisionDifferential and
// FuzzRouteDecision.
func checkRouteDecision(t *testing.T, seed uint64) {
	t.Helper()
	checkViews(t, seed)
	checkExecutors(t, seed)
}

// checkViews runs the decision on the live view and on its frozen copy with
// RNG, cursor, skip set and attempt pinned: the copy must decide as the
// original does, including the unusable-candidate and exhausted-attempts
// outcomes the fast executor never reaches.
func checkViews(t *testing.T, seed uint64) {
	p, _, q := diffWorld(t, seed)
	p.PublishSnapshot()
	live, frozen := &p.routeView, &p.RoutingSnapshot().view
	base, final := live.decide(q)
	fbase, ffinal := frozen.decide(q)
	if final != ffinal || base != fbase {
		t.Fatalf("seed %d: decide diverges: live %+v/%v frozen %+v/%v", seed, base, final, fbase, ffinal)
	}
	if final {
		return
	}
	var skip map[NodeID]bool
	for _, attempt := range []int{0, 1, maxRouteAttempts} {
		a := live.route(q, base, rng.New(seed), q.QueryID*7, skip, attempt)
		b := frozen.route(q, base, rng.New(seed), q.QueryID*7, skip, attempt)
		if (a.candMap == nil) != (b.candMap == nil) || (a.candMap != nil && !reflect.DeepEqual(*a.candMap, *b.candMap)) {
			t.Fatalf("seed %d attempt %d: candidate maps diverge: live %+v frozen %+v", seed, attempt, a.candMap, b.candMap)
		}
		a.candMap, b.candMap = nil, nil
		if a != b {
			t.Fatalf("seed %d attempt %d: route diverges:\n live   %+v\n frozen %+v", seed, attempt, a, b)
		}
		if a.kind == routeUnusable {
			skip = map[NodeID]bool{a.node: true}
		}
	}
}

// checkExecutors feeds the query to HandleQueryFast on one twin and to
// HandleQuery on the other, the loop's RNG and scan cursor pinned to the fast
// path's, and requires the same messages (outcome kind, target, OnBehalf,
// PrevDist, hop reason, path extension, result Map/Meta, fail reason), the
// same weights after folding, and the same counters.
func checkExecutors(t *testing.T, seed uint64) {
	a, envA, q := diffWorld(t, seed)
	b, envB, _ := diffWorld(t, seed)
	a.PublishSnapshot()

	seq := fastSeq.Load()
	var riders []Piggyback
	var paths [][]PathEntry
	out := a.RoutingSnapshot().HandleQueryFast(cloneQuery(q), envA.now, NodeMap{}, envA.Send,
		func(pb Piggyback, path []PathEntry) { riders, paths = append(riders, pb), append(paths, path) })
	if out == FastFallback {
		if len(envA.sent) != 0 || len(riders) != 0 {
			t.Fatalf("seed %d: fallback after %d sends, %d absorbs", seed, len(envA.sent), len(riders))
		}
		base, final := b.decide(q)
		if !b.IsCold(q.Dest) && (final || b.route(q, base, rng.New(1), q.QueryID*7, nil, 0).kind != routeUnusable) {
			t.Fatalf("seed %d: fast path declined, but the destination is not cold and the loop's first attempt is usable", seed)
		}
		return
	}
	if len(riders) != 1 || !reflect.DeepEqual(paths[0], append([]PathEntry(nil), q.Path...)) {
		t.Fatalf("seed %d: absorb called %d times, path %+v, want once with %+v", seed, len(riders), paths, q.Path)
	}
	a.FastAbsorb(riders[0], paths[0])

	if s := fastSeq.Load(); s != seq {
		b.src.Seed(q.QueryID ^ uint64(uint32(b.ID))<<32 ^ s)
	}
	b.scanClock = int(q.QueryID*7) - 7
	b.HandleQuery(cloneQuery(q))

	if len(envA.sent) != len(envB.sent) {
		t.Fatalf("seed %d: fast sent %d messages, loop %d", seed, len(envA.sent), len(envB.sent))
	}
	for i := range envA.sent {
		fa, lo := envA.sent[i], envB.sent[i]
		if fa.to != lo.to || comparableMsg(fa.msg) != comparableMsg(lo.msg) {
			t.Fatalf("seed %d: message %d diverges (fast outcome %d):\n fast → %d %s\n loop → %d %s",
				seed, i, out, fa.to, comparableMsg(fa.msg), lo.to, comparableMsg(lo.msg))
		}
	}
	for _, id := range a.HostedIDs() {
		if wa, wb := a.NodeWeight(id), b.NodeWeight(id); math.Abs(wa-wb) > 1e-9 {
			t.Fatalf("seed %d: node %d weight: fast %v loop %v", seed, id, wa, wb)
		}
	}
	if sa, sb := a.StatsView(), b.StatsView(); sa != sb {
		t.Fatalf("seed %d: counters diverge:\n fast %+v\n loop %+v", seed, sa, sb)
	}
}

func TestRouteDecisionDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 10000; seed++ {
		checkRouteDecision(t, seed)
	}
}

func FuzzRouteDecision(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkRouteDecision)
}
