package overlay

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/membership"
)

// startColdNode builds and starts a single-server overlay hosting the whole
// test namespace with a hot cache capped at capEntries — the larger-than-RAM
// configuration, with the namespace ~10x the cache. tweak, if given, edits
// the options before the node is built.
func startColdNode(t *testing.T, dir string, capEntries int, tweak ...func(*Options)) (*Node, *LocalTransport) {
	t.Helper()
	tree := testTree()
	all := make([]core.NodeID, tree.Len())
	for i := range all {
		all[i] = core.NodeID(i)
	}
	opts := Options{
		Seed: 7,
		Persist: &PersistOptions{
			Dir:              dir,
			SnapshotInterval: time.Hour, // snapshots are forced explicitly
			HotCacheEntries:  capEntries,
		},
	}
	for _, f := range tweak {
		f(&opts)
	}
	nd, err := NewNode(0, tree, all, func(core.NodeID) core.ServerID { return 0 }, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewLocalTransport(0)
	tr.Register(nd)
	nd.SetTransport(tr)
	nd.Start()
	return nd, tr
}

func residentTotals(t *testing.T, n *Node) (resident, cold, hosted int) {
	t.Helper()
	if !n.Inspect(func(p *core.Peer) {
		resident += p.ResidentCount()
		cold += p.ColdCount()
		hosted += len(p.HostedIDs())
	}) {
		t.Fatal("node stopped during inspection")
	}
	return
}

// drainToCap snapshots (building the index and completing the clean epoch)
// and waits until the resident set has drained to the hot-cache cap.
func drainToCap(t *testing.T, n *Node, capEntries int) {
	t.Helper()
	n.writeSnapshot()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resident, cold, _ := residentTotals(t, n)
		if cold > 0 && resident <= capEntries {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	resident, cold, hosted := residentTotals(t, n)
	t.Fatalf("hot cache did not drain: resident=%d cold=%d hosted=%d cap=%d",
		resident, cold, hosted, capEntries)
}

// TestColdHostingZipfE2E is the larger-than-RAM scenario end to end: a server
// whose hot cache holds under a tenth of its hosted partition must keep
// serving the full namespace — a Zipf lookup stream resolves ≥99%, cold
// misses are observed loading from the on-disk index, application data
// survives the demote/load round trip, and queue waits stay bounded because
// the event loop never performs the disk reads. A restart then recovers the
// same bounded-resident shape straight from the index.
func TestColdHostingZipfE2E(t *testing.T) {
	const capEntries = 24
	dir := t.TempDir()
	n, tr := startColdNode(t, dir, capEntries)
	stopped := false
	defer func() {
		if !stopped {
			n.Stop()
			tr.Close()
		}
	}()
	tree := n.tree

	// Owner-grade state on the first 50 nodes, written before the snapshot so
	// the demote/load round trip must preserve it.
	const dataNodes = 50
	for id := 0; id < dataNodes; id++ {
		id := core.NodeID(id)
		n.Inspect(func(p *core.Peer) {
			p.SetMeta(id, map[string]string{"probe": fmt.Sprint(id)})
			p.SetData(id, []byte(fmt.Sprintf("payload-%d", id)))
		})
	}
	drainToCap(t, n, capEntries)
	resident, cold, hosted := residentTotals(t, n)
	if hosted != tree.Len() {
		t.Fatalf("hosted %d nodes after drain, want the full namespace %d", hosted, tree.Len())
	}
	if hosted < 10*resident {
		t.Fatalf("namespace %d is not ≥10x the resident set %d", hosted, resident)
	}
	t.Logf("drained: %d resident, %d cold of %d hosted", resident, cold, hosted)

	// Zipf lookup stream over the whole namespace: every result must be
	// correct, and the tail must actually reach cold entries.
	zipf := rand.NewZipf(rand.New(rand.NewSource(42)), 1.1, 1, uint64(tree.Len()-1))
	const lookups = 2000
	ok := 0
	for i := 0; i < lookups; i++ {
		// Spread the Zipf head across the namespace so the hot set is not
		// just the lowest ids.
		dest := core.NodeID((zipf.Uint64()*7919 + 13) % uint64(tree.Len()))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := n.Lookup(ctx, dest)
		cancel()
		if err != nil || !res.OK || res.Node != dest {
			continue
		}
		ok++
	}
	if ok*100 < lookups*99 {
		t.Fatalf("resolved %d/%d Zipf lookups, want ≥99%%", ok, lookups)
	}
	misses, hits, evictions := n.idxMisses.Value(), n.idxHits.Value(), n.idxEvictions.Value()
	t.Logf("index: %d misses, %d hits, %d evictions; load latency (s) p50=%.6f p90=%.6f p99=%.6f p999=%.6f over %d loads",
		misses, hits, evictions,
		n.idxLoadHist.Quantile(0.50), n.idxLoadHist.Quantile(0.90),
		n.idxLoadHist.Quantile(0.99), n.idxLoadHist.Quantile(0.999),
		n.idxLoadHist.Count())
	if misses == 0 || hits == 0 {
		t.Fatalf("no cold loads observed (misses=%d hits=%d): the stream never left the hot set", misses, hits)
	}
	if evictions == 0 {
		t.Fatal("no evictions observed")
	}
	if n.idxLoadHist.Count() == 0 {
		t.Fatal("cold-load latency histogram is empty")
	}
	// The loop parks cold misses instead of reading disk, so queue wait must
	// not absorb load latency.
	if p99 := n.queueWaitHist.Quantile(0.99); p99 > 0.25 {
		t.Fatalf("queue-wait p99 %.4fs: the event loop is stalling on cold misses", p99)
	}
	if resident, _, _ := residentTotals(t, n); resident > capEntries {
		t.Fatalf("resident set %d exceeds cap %d after the stream", resident, capEntries)
	}

	// Cold data retrieval: find a data-carrying node that is currently on
	// disk and fetch its payload through the DataRequest park path.
	var coldData core.NodeID = -1
	n.Inspect(func(p *core.Peer) {
		if coldData >= 0 {
			return
		}
		for _, id := range p.ColdIDs() {
			if int(id) < dataNodes {
				coldData = id
				return
			}
		}
	})
	if coldData < 0 {
		t.Fatal("no data-carrying node is cold; cannot exercise the data load path")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	res, data, err := n.Get(ctx, coldData)
	cancel()
	if err != nil || !res.OK {
		t.Fatalf("Get(%d) through the cold path: %v %+v", coldData, err, res)
	}
	if string(data) != fmt.Sprintf("payload-%d", coldData) {
		t.Fatalf("cold data round trip returned %q", data)
	}
	if res.Meta.Attrs["probe"] != fmt.Sprint(coldData) {
		t.Fatalf("cold meta round trip returned %+v", res.Meta)
	}

	// Restart from the same directory: replay must come back indexed, with
	// the full partition hosted but only the hot cache resident.
	n.Stop()
	tr.Close()
	stopped = true
	n2, tr2 := startColdNode(t, dir, capEntries)
	defer func() {
		n2.Stop()
		tr2.Close()
	}()
	rs := n2.ReplayedState()
	if rs == nil || !rs.Indexed {
		t.Fatalf("restart did not use the node index: %+v", rs)
	}
	resident, cold, hosted = residentTotals(t, n2)
	if hosted != tree.Len() {
		t.Fatalf("restart hosts %d nodes, want %d", hosted, tree.Len())
	}
	if resident > capEntries {
		t.Fatalf("restart materialized %d entries, cap %d", resident, capEntries)
	}
	if cold == 0 {
		t.Fatal("restart left nothing cold")
	}
	// A cold node's owner-grade state is reachable after restart.
	coldData = -1
	n2.Inspect(func(p *core.Peer) {
		if coldData >= 0 {
			return
		}
		for _, id := range p.ColdIDs() {
			if int(id) < dataNodes {
				coldData = id
				return
			}
		}
	})
	if coldData >= 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, data, err := n2.Get(ctx, coldData)
		cancel()
		if err != nil || !res.OK || string(data) != fmt.Sprintf("payload-%d", coldData) {
			t.Fatalf("post-restart cold Get(%d): %v %+v %q", coldData, err, res, data)
		}
	}
}

// TestColdLoadConcurrentBarriers races cold-miss loads against the two
// operations that park the event loop — inspections (the PurgeServer path
// membership uses) and snapshots (which capture cold sets and complete clean
// epochs) — under the race detector. Every lookup must still resolve.
func TestColdLoadConcurrentBarriers(t *testing.T) {
	const capEntries = 20
	n, tr := startColdNode(t, t.TempDir(), capEntries)
	defer func() {
		n.Stop()
		tr.Close()
	}()
	drainToCap(t, n, capEntries)
	tree := n.tree

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The purge parks the loop mid-stream; cold loads in flight must
			// neither block it nor corrupt state under it.
			n.Inspect(func(p *core.Peer) { p.PurgeServer(1, nil) })
			if i%5 == 0 {
				n.writeSnapshot()
			}
		}
	}()
	const lookups = 400
	failed := 0
	src := rand.New(rand.NewSource(9))
	for i := 0; i < lookups; i++ {
		dest := core.NodeID(src.Intn(tree.Len()))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := n.Lookup(ctx, dest)
		cancel()
		if err != nil || !res.OK || res.Node != dest {
			failed++
		}
	}
	close(stop)
	wg.Wait()
	if failed > lookups/100 {
		t.Fatalf("%d/%d lookups failed under concurrent barriers", failed, lookups)
	}
	if n.idxMisses.Value() == 0 {
		t.Fatal("no cold misses observed; the race never exercised the load path")
	}
}

// TestColdLoadDropsDeadServers checks that a cold load does not bring back a
// server membership has declared dead. Every hosted self-map names server 1
// before the snapshot, so the index records name it too. Server 1 is then
// declared dead, which purges only the resident entries. A node loaded from
// the index afterwards must come back without it.
func TestColdLoadDropsDeadServers(t *testing.T) {
	const capEntries, dead = 24, core.ServerID(1)
	n, tr := startColdNode(t, t.TempDir(), capEntries, func(o *Options) {
		o.Membership = &MembershipOptions{
			// Server 1 never runs, and probing is slow enough that the
			// detector stays out of the test; the death is declared below.
			Protocol: membership.Options{ProbeInterval: time.Hour},
			Servers:  2,
			Peers:    map[core.ServerID]string{0: "", 1: ""},
		}
	})
	defer func() {
		n.Stop()
		tr.Close()
	}()
	entries := make([]core.PathEntry, n.tree.Len())
	for i := range entries {
		entries[i] = core.PathEntry{Node: core.NodeID(i), Map: core.SingleServerMap(dead)}
	}
	n.Inspect(func(p *core.Peer) { p.LearnMaps(entries) })
	drainToCap(t, n, capEntries)

	var cold []core.NodeID
	n.Inspect(func(p *core.Peer) { cold = p.ColdIDs() })
	if len(cold) < 2 {
		t.Fatalf("%d cold nodes after the drain, want at least 2", len(cold))
	}
	hosts := func(id core.NodeID) []core.ServerID {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := n.Lookup(ctx, id)
		if err != nil || !res.OK || res.Node != id {
			t.Fatalf("lookup of cold node %d: %v %+v", id, err, res)
		}
		return res.Hosts
	}
	names := func(hs []core.ServerID) bool {
		for _, h := range hs {
			if h == dead {
				return true
			}
		}
		return false
	}
	// While server 1 is alive, a cold load installs the stored map as is.
	if hs := hosts(cold[0]); !names(hs) {
		t.Fatalf("test setup: node %d loaded from the index with hosts %v, want server %d among them", cold[0], hs, dead)
	}

	n.handleMembershipEvent(membership.Event{
		Member: membership.Member{ID: dead, State: membership.Dead},
		Prev:   membership.Alive,
	})
	if hs := hosts(cold[1]); names(hs) {
		t.Fatalf("node %d loaded after server %d died still names it: hosts %v", cold[1], dead, hs)
	}
}

// TestRestartKeepsTailWritesToColdNodes is the regression test for
// acknowledged writes lost on restart (bench/README.md Finding 4). Writes to
// more distinct nodes than the hot cache holds sit in the un-snapshotted WAL
// tail; the node stops without a snapshot and reopens with a hot cache of 4,
// so the index stream fills the cache and nearly every written node is cold
// when its tail record replays. Every write must read back.
func TestRestartKeepsTailWritesToColdNodes(t *testing.T) {
	dir := t.TempDir()
	n, tr := startColdNode(t, dir, 64)
	stopped := false
	defer func() {
		if !stopped {
			n.Stop()
			tr.Close()
		}
	}()
	drainToCap(t, n, 64) // snapshot + index: everything written below is tail
	tree := n.tree
	lookup := func(nd *Node, id core.NodeID) LookupResult {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := nd.Lookup(ctx, id)
		if err != nil || !res.OK {
			t.Fatalf("lookup of node %d: %v %+v", id, err, res)
		}
		return res
	}
	const writes = 24
	written := map[core.NodeID]string{}
	for i := 0; len(written) < writes; i++ {
		if i > 10*writes {
			t.Fatalf("only %d of %d writes were accepted", len(written), writes)
		}
		// The owner's read-modify-write: the lookup loads a cold node, and a
		// node evicted again before the write refuses it.
		id := core.NodeID((i*37 + 5) % tree.Len())
		val := fmt.Sprint("w", i)
		lookup(n, id)
		ok := false
		n.Inspect(func(p *core.Peer) { ok = p.SetMeta(id, map[string]string{"w": val}) || ok })
		if ok {
			written[id] = val
		}
	}
	n.Stop() // no snapshot on the way out: a stop and a kill recover alike
	tr.Close()
	stopped = true

	n2, tr2 := startColdNode(t, dir, 4)
	defer func() {
		n2.Stop()
		tr2.Close()
	}()
	if rs := n2.ReplayedState(); rs == nil || !rs.Indexed || len(rs.Mutations) < writes {
		t.Fatalf("restart did not replay an indexed snapshot plus the written tail: %+v", rs)
	}
	for id, want := range written {
		if got := lookup(n2, id).Meta.Attrs["w"]; got != want {
			t.Errorf("node %d: write %q came back as %q", id, want, got)
		}
	}
}
