package core

import (
	"sync"
	"testing"

	"terradir/internal/namespace"
)

// residentTree builds a root with n leaf children (a flat partition to host).
func residentTree(n int) (*namespace.Tree, []NodeID) {
	var b namespace.Builder
	root := b.AddRoot("root")
	ids := []NodeID{root}
	for i := 0; i < n; i++ {
		ids = append(ids, b.AddChild(root, "leaf"))
	}
	return b.Build(), ids
}

func newResidentPeer(t *testing.T, nLeaves, capEntries int) (*Peer, []NodeID, *fakeEnv) {
	t.Helper()
	tree, ids := residentTree(nLeaves)
	env := &fakeEnv{now: 1}
	p := newTestPeer(t, tree, 0, ids, 1, DefaultConfig(), env)
	p.SetResidency(capEntries, nil)
	return p, ids, env
}

func cleanEpoch(p *Peer) {
	g := p.MarkCleanEpoch()
	p.CompleteCleanEpoch(g)
}

func TestResidencyCapInvariant(t *testing.T) {
	const n, cap = 12, 4
	p, ids, _ := newResidentPeer(t, n, cap)
	total := len(ids) // root + n leaves

	// Everything starts dirty: no snapshot has covered it, so nothing may
	// leave memory yet even far over cap.
	p.EnforceResidency()
	if p.ResidentCount() != total || p.ColdCount() != 0 {
		t.Fatalf("dirty entries evicted: resident=%d cold=%d", p.ResidentCount(), p.ColdCount())
	}

	// After a completed clean epoch the resident set drains to cap.
	cleanEpoch(p)
	p.EnforceResidency()
	if p.ResidentCount() != cap {
		t.Fatalf("resident=%d, want cap %d", p.ResidentCount(), cap)
	}
	if p.ColdCount() != total-cap {
		t.Fatalf("cold=%d, want %d", p.ColdCount(), total-cap)
	}

	// The hosted partition is unchanged: every node still hosted, counted,
	// digested and enumerable.
	if p.OwnedCount() != total {
		t.Fatalf("OwnedCount=%d, want %d", p.OwnedCount(), total)
	}
	if got := p.HostedIDs(); len(got) != total {
		t.Fatalf("HostedIDs has %d entries, want %d", len(got), total)
	}
	p.rebuildDigest()
	for _, id := range ids {
		if !p.Hosts(id) {
			t.Fatalf("node %d no longer hosted after demotion", id)
		}
		if !p.digest.Test(NodeKey(id)) {
			t.Fatalf("digest lost node %d", id)
		}
	}
	resident := 0
	for _, id := range ids {
		if _, ok := p.hosted[id]; ok {
			resident++
			if p.IsCold(id) {
				t.Fatalf("node %d both resident and cold", id)
			}
		} else if !p.IsCold(id) {
			t.Fatalf("node %d neither resident nor cold", id)
		}
	}
	if resident != cap {
		t.Fatalf("map holds %d entries, want %d", resident, cap)
	}
}

func TestClockSecondChance(t *testing.T) {
	const n, cap = 8, 10 // start under cap; shrink cap via direct eviction
	p, ids, _ := newResidentPeer(t, n, cap)
	cleanEpoch(p)

	// Touch every entry except two: the untouched ones must go first.
	spare := map[NodeID]bool{ids[3]: true, ids[7]: true}
	for _, hn := range p.hostedList {
		hn.ref = spare[hn.id] == false
	}
	if !p.evictOneCold() || !p.evictOneCold() {
		t.Fatal("no evictable entries found")
	}
	for id := range spare {
		if !p.IsCold(id) {
			t.Fatalf("untouched node %d survived while referenced entries were candidates", id)
		}
	}
	// The first sweep consumed the reference bits; a third eviction must
	// still succeed (second chance, not permanent pinning).
	if !p.evictOneCold() {
		t.Fatal("referenced entries permanently pinned")
	}
}

func TestDirtyEntriesPinned(t *testing.T) {
	const n, cap = 6, 2
	p, ids, _ := newResidentPeer(t, n, cap)
	cleanEpoch(p)

	// Dirty one entry after the epoch: it must survive every sweep.
	dirty := ids[2]
	if !p.SetMeta(dirty, map[string]string{"k": "v"}) {
		t.Fatal("SetMeta failed")
	}
	p.EnforceResidency()
	if p.IsCold(dirty) {
		t.Fatal("dirty entry was evicted")
	}
	if _, ok := p.hosted[dirty]; !ok {
		t.Fatal("dirty entry vanished")
	}
	// Next completed epoch cleans it; now it is evictable.
	cleanEpoch(p)
	for _, hn := range p.hostedList {
		hn.ref = false
	}
	p.EnforceResidency()
	if p.ResidentCount() != cap {
		t.Fatalf("resident=%d, want %d after clean epoch", p.ResidentCount(), cap)
	}
}

func TestAdoptedEntriesPinned(t *testing.T) {
	p, ids, _ := newResidentPeer(t, 4, 1)
	cleanEpoch(p)
	hn := p.hosted[ids[1]]
	hn.adopted = true
	for _, h := range p.hostedList {
		h.ref = false
	}
	p.EnforceResidency()
	if p.IsCold(ids[1]) {
		t.Fatal("adopted entry was demoted to cold")
	}
}

func TestInstallFromIndexRoundTrip(t *testing.T) {
	const n, cap = 6, 3
	p, ids, _ := newResidentPeer(t, n, cap)
	if ok := p.SetData(ids[2], []byte("payload")); !ok {
		t.Fatal("SetData failed")
	}
	export := p.ExportHosted()
	var rec *HostedMutation
	for i := range export {
		if export[i].Node == ids[2] {
			rec = &export[i]
		}
	}
	cleanEpoch(p)
	p.EnforceResidency()
	if !p.IsCold(ids[2]) {
		// Force the interesting case: demote it directly.
		for i, hn := range p.hostedList {
			if hn.id == ids[2] {
				p.demoteToCold(i)
				break
			}
		}
	}
	before := p.ResidentCount()
	if !p.InstallFromIndex(rec, func(NodeID) ServerID { return 0 }) {
		t.Fatal("InstallFromIndex refused the record")
	}
	if p.IsCold(ids[2]) {
		t.Fatal("installed node still cold")
	}
	hn, ok := p.hosted[ids[2]]
	if !ok {
		t.Fatal("installed node not resident")
	}
	if hn.dirtyGen != 0 {
		t.Fatal("index-installed entry must be clean (its durable copy is the index)")
	}
	if !hn.ref {
		t.Fatal("installed entry should carry a reference bit (it was just demanded)")
	}
	if string(hn.data) != "payload" || !hn.owned {
		t.Fatalf("installed state wrong: owned=%v data=%q", hn.owned, hn.data)
	}
	if p.ResidentCount() > before+1 {
		t.Fatalf("install did not enforce the cap: resident=%d", p.ResidentCount())
	}
	if p.OwnedCount() != n+1 {
		t.Fatalf("OwnedCount=%d, want %d", p.OwnedCount(), n+1)
	}
}

func TestImportHostedClearsCold(t *testing.T) {
	p, ids, _ := newResidentPeer(t, 4, 10)
	cleanEpoch(p)
	for i, hn := range p.hostedList {
		if hn.id == ids[1] {
			p.demoteToCold(i)
			break
		}
	}
	// A WAL-tail delete of a cold replica must drop the cold bit. Cold owned
	// entries refuse deletion the same way resident owned ones do.
	if p.ImportHosted(&HostedMutation{Kind: MutDelete, Node: ids[1]}, nil) {
		t.Fatal("MutDelete removed a cold owned node")
	}
	// Demote a replica (strip ownership first) and delete it cold.
	p.cold.set(ids[1], false) // rewrite bit as replica
	if !p.ImportHosted(&HostedMutation{Kind: MutDelete, Node: ids[1]}, nil) {
		t.Fatal("MutDelete did not clear the cold replica")
	}
	if p.IsCold(ids[1]) || p.Hosts(ids[1]) {
		t.Fatal("cold bit survived the delete")
	}
	// A WAL-tail upsert of a cold node materializes it and clears the bit.
	p.MarkCold(ids[2], false)
	if hn := p.hosted[ids[2]]; hn != nil { // simulate restart: cold, not resident
		p.dropHosted(hn)
	}
	rec := &HostedMutation{Kind: MutUpsert, Node: ids[2], Owned: false, Map: SingleServerMap(0)}
	if !p.ImportHosted(rec, func(NodeID) ServerID { return 0 }) {
		t.Fatal("upsert of cold node failed")
	}
	if p.IsCold(ids[2]) {
		t.Fatal("upsert left the cold bit set")
	}
}

func TestColdLookupFallsBackToLoop(t *testing.T) {
	p, ids, env := newResidentPeer(t, 4, 10)
	cleanEpoch(p)
	p.PublishSnapshot()
	snap := p.RoutingSnapshot()
	for i, hn := range p.hostedList {
		if hn.id == ids[1] {
			p.demoteToCold(i)
			break
		}
	}
	q := &QueryMsg{QueryID: 9, Dest: ids[1], Source: 1, OnBehalf: namespace.Invalid}
	out := snap.HandleQueryFast(q, env.now, NodeMap{}, env.Send, nil)
	if out != FastFallback {
		t.Fatalf("cold destination served on the fast path: %v", out)
	}
	if len(env.take()) != 0 {
		t.Fatal("fallback must not send anything")
	}
	// A resident destination still resolves on the same (stale) snapshot.
	q2 := &QueryMsg{QueryID: 10, Dest: ids[2], Source: 1, OnBehalf: namespace.Invalid}
	if out := snap.HandleQueryFast(q2, env.now, NodeMap{}, env.Send, nil); out != FastResolved {
		t.Fatalf("resident destination did not resolve: %v", out)
	}
}

// TestColdSetConcurrentReads exercises the lock-free read contract under the
// race detector: IsCold from reader goroutines while the loop demotes and
// reinstalls entries.
func TestColdSetConcurrentReads(t *testing.T) {
	p, ids, _ := newResidentPeer(t, 32, 64)
	cleanEpoch(p)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					p.IsCold(id)
				}
			}
		}()
	}
	export := p.ExportHosted()
	for round := 0; round < 200; round++ {
		for i := range p.hostedList {
			if !p.hostedList[i].owned {
				continue
			}
			p.hostedList[i].ref = false
			p.demoteToCold(i)
			break
		}
		rec := &export[round%len(export)]
		if p.IsCold(rec.Node) {
			p.InstallFromIndex(rec, func(NodeID) ServerID { return 0 })
		}
	}
	close(stop)
	wg.Wait()
}
