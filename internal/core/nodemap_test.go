package core

import (
	"slices"
	"testing"
	"testing/quick"

	"terradir/internal/rng"
)

func TestNodeMapAddRegular(t *testing.T) {
	var m NodeMap
	if !m.AddRegular(1, 3) || !m.AddRegular(2, 3) || !m.AddRegular(3, 3) {
		t.Fatal("adds within capacity failed")
	}
	if m.AddRegular(4, 3) {
		t.Fatal("add beyond Msize succeeded")
	}
	if m.AddRegular(2, 3) {
		t.Fatal("duplicate add succeeded")
	}
	if m.Len() != 3 || !m.Contains(1) || !m.Contains(2) || !m.Contains(3) {
		t.Fatalf("map state wrong: %+v", m)
	}
}

func TestNodeMapAddAdvertisedFrontAndPromotion(t *testing.T) {
	var m NodeMap
	m.AddRegular(1, 4)
	m.AddRegular(2, 4)
	m.AddAdvertised(3, 4)
	if m.Servers[0] != 3 || m.NumAdvertised != 1 {
		t.Fatalf("advertised not at front: %+v", m)
	}
	// Promote an existing regular entry.
	m.AddAdvertised(2, 4)
	if m.Servers[0] != 2 || m.NumAdvertised != 2 {
		t.Fatalf("promotion wrong: %+v", m)
	}
	if m.Len() != 3 {
		t.Fatalf("promotion changed length: %+v", m)
	}
}

func TestNodeMapAddAdvertisedDisplacement(t *testing.T) {
	var m NodeMap
	m.AddRegular(1, 3)
	m.AddRegular(2, 3)
	m.AddRegular(3, 3)
	m.AddAdvertised(9, 3)
	if m.Len() != 3 {
		t.Fatalf("len = %d after displacement", m.Len())
	}
	if !m.Contains(9) || m.Servers[0] != 9 {
		t.Fatalf("new advert missing: %+v", m)
	}
	if m.Contains(3) {
		t.Fatalf("last regular entry should have been displaced: %+v", m)
	}
}

func TestNodeMapAllAdvertisedDisplacement(t *testing.T) {
	var m NodeMap
	m.AddAdvertised(1, 2)
	m.AddAdvertised(2, 2)
	m.AddAdvertised(3, 2)
	if m.Len() != 2 || m.Servers[0] != 3 {
		t.Fatalf("oldest advert not displaced: %+v", m)
	}
	if m.NumAdvertised != 2 {
		t.Fatalf("NumAdvertised = %d", m.NumAdvertised)
	}
}

func TestNodeMapRemove(t *testing.T) {
	var m NodeMap
	m.AddAdvertised(1, 4)
	m.AddRegular(2, 4)
	if !m.Remove(1) {
		t.Fatal("remove advertised failed")
	}
	if m.NumAdvertised != 0 {
		t.Fatalf("NumAdvertised = %d after removing advert", m.NumAdvertised)
	}
	if m.Remove(99) {
		t.Fatal("removing absent entry reported true")
	}
	if !m.Remove(2) || m.Len() != 0 {
		t.Fatal("remove regular failed")
	}
}

func TestNodeMapDemote(t *testing.T) {
	var m NodeMap
	m.AddAdvertised(1, 4)
	m.AddAdvertised(2, 4)
	m.Demote()
	if m.NumAdvertised != 0 || m.Len() != 2 {
		t.Fatalf("demote wrong: %+v", m)
	}
}

func TestNodeMapCloneIndependence(t *testing.T) {
	var m NodeMap
	m.AddRegular(1, 4)
	c := m.Clone()
	c.AddRegular(2, 4)
	if m.Contains(2) {
		t.Fatal("clone shares storage")
	}
}

func TestNodeMapMergePrefersAdvertised(t *testing.T) {
	src := rng.New(1)
	var dst NodeMap
	dst.AddRegular(1, 4)
	dst.AddRegular(2, 4)
	dst.AddRegular(3, 4)
	dst.AddRegular(4, 4)
	var in NodeMap
	in.AddAdvertised(10, 4)
	in.AddAdvertised(11, 4)
	dst.Merge(&in, 4, src, nil)
	if dst.Len() != 4 {
		t.Fatalf("len = %d", dst.Len())
	}
	// Incoming advertised entries must survive, at the front.
	if dst.Servers[0] != 10 && dst.Servers[0] != 11 {
		t.Fatalf("advertised not in front: %+v", dst)
	}
	if !dst.Contains(10) || !dst.Contains(11) {
		t.Fatalf("advertised entries lost: %+v", dst)
	}
	if dst.NumAdvertised != 2 {
		t.Fatalf("NumAdvertised = %d", dst.NumAdvertised)
	}
}

func TestNodeMapMergeFilter(t *testing.T) {
	src := rng.New(2)
	var dst NodeMap
	dst.AddRegular(1, 8)
	var in NodeMap
	in.AddRegular(2, 8)
	in.AddRegular(3, 8)
	dst.Merge(&in, 8, src, func(s ServerID) bool { return s != 3 })
	if dst.Contains(3) {
		t.Fatal("filtered entry survived merge")
	}
	if !dst.Contains(1) || !dst.Contains(2) {
		t.Fatalf("kept entries lost: %+v", dst)
	}
}

func TestNodeMapMergeRandomFillRespectsMsize(t *testing.T) {
	src := rng.New(3)
	if err := quick.Check(func(seed uint32) bool {
		local := rng.New(uint64(seed))
		var a, b NodeMap
		for i := 0; i < 10; i++ {
			a.AddRegular(ServerID(local.Intn(20)), 100)
			b.AddRegular(ServerID(local.Intn(20)+20), 100)
		}
		msize := 1 + local.Intn(8)
		a.Merge(&b, msize, src, nil)
		if a.Len() > msize {
			return false
		}
		// Uniqueness invariant.
		seen := map[ServerID]bool{}
		for _, s := range a.Servers {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return a.NumAdvertised <= a.Len()
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeMapMergeEmptyIncoming(t *testing.T) {
	src := rng.New(4)
	var dst NodeMap
	dst.AddRegular(1, 4)
	var in NodeMap
	dst.Merge(&in, 4, src, nil)
	if dst.Len() != 1 || !dst.Contains(1) {
		t.Fatalf("merge with empty incoming changed map: %+v", dst)
	}
}

func TestNodeMapPickUniform(t *testing.T) {
	src := rng.New(5)
	var m NodeMap
	for i := 1; i <= 4; i++ {
		m.AddRegular(ServerID(i), 8)
	}
	counts := map[ServerID]int{}
	for i := 0; i < 4000; i++ {
		counts[m.Pick(src, NoServer, nil)]++
	}
	for s := ServerID(1); s <= 4; s++ {
		if counts[s] < 800 || counts[s] > 1200 {
			t.Fatalf("Pick not uniform: %v", counts)
		}
	}
}

func TestNodeMapPickExcludes(t *testing.T) {
	src := rng.New(6)
	var m NodeMap
	m.AddRegular(1, 4)
	m.AddRegular(2, 4)
	for i := 0; i < 100; i++ {
		if got := m.Pick(src, 1, nil); got != 2 {
			t.Fatalf("Pick returned excluded or wrong entry: %d", got)
		}
	}
	var only NodeMap
	only.AddRegular(1, 4)
	if got := only.Pick(src, 1, nil); got != NoServer {
		t.Fatalf("Pick of fully excluded map = %d", got)
	}
}

func TestNodeMapPickFilterStrict(t *testing.T) {
	// Digest filtering is strict (§3.7): if every entry is refuted, Pick
	// returns NoServer and the caller prunes + falls back to the next-best
	// candidate — it must never re-select a refuted entry.
	src := rng.New(7)
	var m NodeMap
	m.AddRegular(1, 4)
	m.AddRegular(2, 4)
	got := m.Pick(src, NoServer, func(ServerID) bool { return false })
	if got != NoServer {
		t.Fatalf("Pick selected a refuted entry: %d", got)
	}
}

func TestNodeMapPrune(t *testing.T) {
	var m NodeMap
	m.AddAdvertised(1, 8)
	m.AddAdvertised(2, 8)
	m.AddRegular(3, 8)
	m.AddRegular(4, 8)
	removed := m.Prune(func(s ServerID) bool { return s%2 == 0 })
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if m.Len() != 2 || !m.Contains(2) || !m.Contains(4) {
		t.Fatalf("prune result wrong: %+v", m)
	}
	if m.NumAdvertised != 1 {
		t.Fatalf("NumAdvertised = %d, want 1", m.NumAdvertised)
	}
	if m.Prune(nil) != 0 {
		t.Fatal("nil predicate should be a no-op")
	}
}

func TestNodeMapPickEmpty(t *testing.T) {
	src := rng.New(8)
	var m NodeMap
	if got := m.Pick(src, NoServer, nil); got != NoServer {
		t.Fatalf("Pick on empty map = %d", got)
	}
}

func TestNodeMapTruncate(t *testing.T) {
	var m NodeMap
	m.AddAdvertised(1, 8)
	m.AddAdvertised(2, 8)
	m.AddRegular(3, 8)
	m.Truncate(1)
	if m.Len() != 1 || m.NumAdvertised != 1 {
		t.Fatalf("truncate wrong: %+v", m)
	}
	m.Truncate(5) // no-op when under size
	if m.Len() != 1 {
		t.Fatal("truncate grew the map")
	}
}

func TestSingleServerMap(t *testing.T) {
	m := SingleServerMap(7)
	if m.Len() != 1 || !m.Contains(7) || m.NumAdvertised != 0 {
		t.Fatalf("SingleServerMap wrong: %+v", m)
	}
}

// refMerge is the heap-building Merge that the allocation-free one replaced,
// kept as the reference for its output and its RNG draws.
func refMerge(m, incoming *NodeMap, msize int, src *rng.Source, keep func(ServerID) bool) {
	type cand struct {
		s   ServerID
		adv bool
	}
	cands := make([]cand, 0, len(incoming.Servers)+len(m.Servers))
	add := func(s ServerID, adv bool) {
		for i := range cands {
			if cands[i].s == s {
				cands[i].adv = cands[i].adv || adv
				return
			}
		}
		if keep != nil && !keep(s) {
			return
		}
		cands = append(cands, cand{s, adv})
	}
	for i, s := range incoming.Servers {
		add(s, i < incoming.NumAdvertised)
	}
	for i, s := range m.Servers {
		add(s, i < m.NumAdvertised)
	}
	var adv, reg []ServerID
	for _, c := range cands {
		if c.adv {
			adv = append(adv, c.s)
		} else {
			reg = append(reg, c.s)
		}
	}
	if len(adv) > msize {
		adv = adv[:msize]
	}
	room := msize - len(adv)
	if room < len(reg) {
		src.Shuffle(len(reg), func(i, j int) { reg[i], reg[j] = reg[j], reg[i] })
		reg = reg[:room]
	}
	m.Servers = append(append(m.Servers[:0], adv...), reg...)
	m.NumAdvertised = len(adv)
}

// randMergeMap draws a well-formed map of up to msize distinct servers out of
// universe, with a random advertised prefix.
func randMergeMap(g *rng.Source, msize, universe int) NodeMap {
	var m NodeMap
	for k := g.Intn(msize + 1); k > 0; k-- {
		m.AddRegular(ServerID(g.Intn(universe)), msize)
	}
	if m.Len() > 0 {
		m.NumAdvertised = g.Intn(m.Len() + 1)
	}
	return m
}

func sameMap(a, b *NodeMap) bool {
	return a.NumAdvertised == b.NumAdvertised && slices.Equal(a.Servers, b.Servers)
}

// TestMergeMatchesReference: the allocation-free Merge produces the reference
// merge's map and leaves the RNG where the reference leaves it (the simulator's
// output depends on both), reports a change exactly when the map differs from
// before, and allocates nothing at the map sizes the protocol runs.
func TestMergeMatchesReference(t *testing.T) {
	g := rng.New(34)
	for i := 0; i < 100_000; i++ {
		msize, universe := 1+g.Intn(10), 4+g.Intn(40)
		if i%10 == 0 {
			// Combined maps beyond the stack arrays spill to the heap.
			msize, universe = mergeStack/2+1+g.Intn(mergeStack), 3*mergeStack
		}
		m, in := randMergeMap(g, msize, universe), randMergeMap(g, msize, universe)
		if i%7 == 0 {
			in = m.Clone() // relearning a known map
		}
		var keep func(ServerID) bool
		if g.Intn(3) == 0 {
			mask := g.Uint64()
			keep = func(s ServerID) bool { return mask>>(uint(s)%64)&1 == 1 }
		}
		seed := g.Uint64()
		want, wantSrc := m.Clone(), rng.New(seed)
		refMerge(&want, &in, msize, wantSrc, keep)
		got, gotSrc := m.Clone(), rng.New(seed)
		changed := got.Merge(&in, msize, gotSrc, keep)
		if !sameMap(&got, &want) {
			t.Fatalf("case %d: Merge(%+v into %+v, msize %d) = %+v, reference %+v", i, in, m, msize, got, want)
		}
		if gotSrc.Uint64() != wantSrc.Uint64() {
			t.Fatalf("case %d: Merge drew from the RNG differently from the reference", i)
		}
		if changed != !sameMap(&want, &m) {
			t.Fatalf("case %d: changed = %v, but the map went %+v -> %+v", i, changed, m, want)
		}
	}

	src := rng.New(1)
	keep := func(s ServerID) bool { return s != 99 }
	full := NodeMap{NumAdvertised: 3}
	other := NodeMap{NumAdvertised: 2}
	for s := ServerID(0); s < 16; s++ {
		full.Servers = append(full.Servers, s)
		other.Servers = append(other.Servers, 100+s)
	}
	known := full.Clone()
	if n := testing.AllocsPerRun(100, func() { known.Merge(&full, 16, src, keep) }); n != 0 {
		t.Fatalf("a no-op merge allocated %v objects", n)
	}
	buf := make([]ServerID, 0, 16)
	for _, tc := range []struct {
		name    string
		from    NodeMap
		msize   int
		inbound *NodeMap
	}{
		{"fill", NodeMap{Servers: full.Servers[:8]}, 16, &NodeMap{Servers: other.Servers[:8]}},
		{"shuffle", full, 16, &other},
	} {
		m := NodeMap{}
		merge := func() {
			m = NodeMap{Servers: append(buf[:0], tc.from.Servers...), NumAdvertised: tc.from.NumAdvertised}
			if !m.Merge(tc.inbound, tc.msize, src, keep) {
				t.Fatalf("%s: merge reported no change", tc.name)
			}
		}
		if n := testing.AllocsPerRun(100, merge); n != 0 {
			t.Fatalf("%s: a changing merge allocated %v objects", tc.name, n)
		}
	}
}
