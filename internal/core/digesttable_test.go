package core

import (
	"fmt"
	"testing"

	"terradir/internal/bloom"
	"terradir/internal/namespace"
	"terradir/internal/rng"
)

// TestDigestTableMatchesFilters runs digestShortcut on published views with
// and without their digest table (bloom.Table against Filter.Test): the
// shortcut (server, node, distance) and the RNG's next draw must agree,
// through appends, storeDigest's newer versions and clock replacements, and
// PurgeServer's mid-list removals, each published incrementally.
func TestDigestTableMatchesFilters(t *testing.T) {
	tree := namespace.NewBalanced(2, 10)
	cfg := DefaultConfig()
	cfg.MaxDigests = 40
	cfg.DigestScanPerHop = 24 // a window that wraps
	p, err := NewPeer(0, tree, cfg, &fakeEnv{now: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	p.AddOwned(0, Meta{})
	p.FinishSetup(func(NodeID) ServerID { return 1 })

	g := rng.New(2)
	version := map[ServerID]uint64{}
	store := func(s ServerID) {
		k := uint32(6)
		if g.Intn(6) == 0 {
			k = 7
		}
		f := bloom.New([]uint64{1024, 2048, 4096}[g.Intn(3)], k)
		for n := 100 + g.Intn(100); n > 0; n-- {
			f.Add(NodeKey(NodeID(g.Intn(tree.Len()))))
		}
		version[s]++
		f.SetVersion(version[s])
		p.storeDigest(s, f)
	}
	shortcuts := 0
	check := func(step string) {
		t.Helper()
		p.PublishSnapshot()
		table := p.RoutingSnapshot().view
		if table.digestTable == nil {
			t.Fatalf("%s: published view has no digest table", step)
		}
		plain := table
		plain.digestTable = nil
		for i := uint64(0); i < 3000; i++ {
			dest, limit, cursor := NodeID(g.Intn(tree.Len())), 1+g.Intn(8), g.Uint64()
			a, b := rng.New(i), rng.New(i)
			s1, n1, d1 := table.digestShortcut(dest, limit, a, cursor)
			s2, n2, d2 := plain.digestShortcut(dest, limit, b, cursor)
			if s1 != s2 || n1 != n2 || d1 != d2 || a.Uint64() != b.Uint64() {
				t.Fatalf("%s: dest %d limit %d cursor %d: table (%d, %d, %d), filters (%d, %d, %d), or the next draws differ",
					step, dest, limit, cursor, s1, n1, d1, s2, n2, d2)
			}
			if s1 != NoServer {
				shortcuts++
			}
		}
	}

	for s := ServerID(1); s <= 30; s++ {
		store(s)
	}
	check("append")
	for s := ServerID(31); s <= 45; s++ {
		store(s) // ten appends up to MaxDigests, then the clock replaces
	}
	check("clock replacement")
	for i := 0; i < 5; i++ {
		store(p.digestList[g.Intn(len(p.digestList))].server)
	}
	check("newer version")
	for i := 0; i < 3; i++ {
		p.PurgeServer(p.digestList[5+g.Intn(20)].server, nil)
	}
	check("purge")
	for round := 0; round < 5; round++ {
		store(ServerID(46 + round))
		store(p.digestList[g.Intn(len(p.digestList))].server)
		p.PurgeServer(p.digestList[g.Intn(len(p.digestList))].server, nil)
		check(fmt.Sprint("mixed ", round))
	}
	if shortcuts == 0 {
		t.Fatal("no decision found a shortcut")
	}
}
