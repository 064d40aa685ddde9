package overlay

import (
	"context"
	"fmt"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/membership"
	"terradir/internal/persist"
)

// TestTCPPersistRestartE2E is the durability scenario end to end over real
// sockets: a 5-peer TCP cluster where one victim-heavy peer journals its
// hosted state, gets killed mid-traffic, and restarts from the same data
// directory. The restart must recover owned metadata and application data
// purely from local replay (asserted before the node touches the network),
// rejoin without receiving a single full warmup stream, and pull only the
// delta it missed via the digest-based reconcile exchange.
func TestTCPPersistRestartE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("persist e2e needs real-time failure detection and restart")
	}
	const n = 5
	const victim = core.ServerID(2)
	const successor = core.ServerID(3) // first alive in ring order after the victim
	tree := testTree()

	// Victim-heavy ownership: the victim owns 12/16 of the namespace, the
	// other four servers a sliver each. This makes "delta ≪ hosted" sharp:
	// a full warmup replacement would have to re-stream a large partition,
	// while the true delta (the successor's own sliver) stays small.
	others := []core.ServerID{0, 1, successor, 4}
	owner := make([]core.ServerID, tree.Len())
	for nd := range owner {
		if nd%16 < 4 {
			owner[nd] = others[nd%16]
		} else {
			owner[nd] = victim
		}
	}
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, n)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	dataDir := t.TempDir()

	transports := make([]*TCPTransport, n)
	for i := 0; i < n; i++ {
		tr, err := NewTCPTransportOpts(core.ServerID(i), "127.0.0.1:0",
			map[core.ServerID]string{}, TCPTransportOptions{Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
	}
	addrOf := make(map[core.ServerID]string, n)
	for i := 0; i < n; i++ {
		addrOf[core.ServerID(i)] = transports[i].Addr()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			transports[i].SetAddr(core.ServerID(j), addrOf[core.ServerID(j)])
		}
	}
	peersCopy := func() map[core.ServerID]string {
		m := make(map[core.ServerID]string, n)
		for k, v := range addrOf {
			m[k] = v
		}
		return m
	}

	newOpts := func(i int) Options {
		o := Options{
			Seed: uint64(i) + 1,
			Membership: &MembershipOptions{
				Protocol: churnProto(i),
				Servers:  n,
				SelfAddr: transports[i].Addr(),
				Peers:    peersCopy(),
			},
		}
		if core.ServerID(i) == victim {
			// SyncAlways: a kill must lose nothing. The snapshot interval is
			// effectively infinite so recovery exercises pure WAL replay.
			o.Persist = &PersistOptions{
				Dir:              dataDir,
				SnapshotInterval: time.Hour,
				SyncPolicy:       persist.SyncAlways,
			}
		}
		return o
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nd, err := NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf, newOpts(i))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		StartTCPNode(nd, transports[i])
	}
	defer func() {
		for i := range nodes {
			nodes[i].Stop()
			transports[i].Close()
		}
	}()

	wait := func(d time.Duration, what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("timed out after %v waiting for %s", d, what)
	}
	stateAt := func(i int, id core.ServerID) membership.State {
		st, _ := nodes[i].Membership().StateOf(id)
		return st
	}
	counterAt := func(i int, name string) uint64 {
		return nodes[i].Registry().Counter(name, "", "server", fmt.Sprint(i)).Value()
	}
	lookups := func(count int, sources []int) (ok int) {
		for r := 0; r < count; r++ {
			src := sources[r%len(sources)]
			dest := core.NodeID((r*7919 + 13) % tree.Len())
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			res, err := nodes[src].Lookup(ctx, dest)
			cancel()
			if err == nil && res.OK {
				ok++
			}
		}
		return ok
	}

	// Phase 1: converge, then write durable owner-only state on the victim.
	wait(10*time.Second, "initial all-alive convergence", func() bool {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if stateAt(i, core.ServerID(j)) != membership.Alive {
					return false
				}
			}
		}
		return true
	})
	if got := lookups(100, []int{0, 1, 2, 3, 4}); got < 100 {
		t.Fatalf("healthy cluster resolved only %d/100 lookups", got)
	}
	probes := ownedBy[victim][:12]
	for _, nd := range probes {
		nd := nd
		applied := false
		nodes[victim].Inspect(func(p *core.Peer) {
			if p.SetMeta(nd, map[string]string{"probe": fmt.Sprint(nd)}) {
				applied = true
			}
			p.SetData(nd, []byte(fmt.Sprintf("payload-%d", nd)))
		})
		if !applied {
			t.Fatalf("victim did not accept SetMeta on owned node %d", nd)
		}
	}

	// Phase 2: kill the victim (no clean snapshot — recovery is WAL-only).
	survivors := []int{0, 1, 3, 4}
	warmupsBefore := make([]uint64, n)
	for _, i := range survivors {
		warmupsBefore[i] = counterAt(i, "terradir_warmup_streams_total")
	}
	nodes[victim].Stop()
	transports[victim].Close()
	wait(10*time.Second, "survivors to declare the victim dead", func() bool {
		for _, i := range survivors {
			if stateAt(i, victim) != membership.Dead {
				return false
			}
		}
		return true
	})
	if ok := lookups(100, survivors); ok*100 < 100*99 {
		t.Fatalf("survivors resolved only %d/100 lookups after handoff", ok)
	}

	// Phase 3: restart from the same data directory, bootstrapping via join.
	freshTr, err := NewTCPTransportOpts(victim, "127.0.0.1:0",
		map[core.ServerID]string{}, TCPTransportOptions{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewNode(victim, tree, ownedBy[victim], ownerOf, Options{
		Seed: 99,
		Membership: &MembershipOptions{
			Protocol: churnProto(int(victim) + 50),
			Servers:  n,
			SelfAddr: freshTr.Addr(),
			JoinAddr: transports[0].Addr(),
		},
		Persist: &PersistOptions{
			Dir:              dataDir,
			SnapshotInterval: time.Hour,
			SyncPolicy:       persist.SyncAlways,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The node has not touched the network yet: everything below is pure
	// local replay.
	rs := fresh.ReplayedState()
	if rs == nil || !rs.HasState() {
		t.Fatalf("restart recovered no durable state: %+v", rs)
	}
	hosted := len(fresh.Peer().HostedIDs())
	if hosted < len(ownedBy[victim]) {
		t.Fatalf("replay restored %d hosted nodes, want at least the %d owned", hosted, len(ownedBy[victim]))
	}
	for _, nd := range probes {
		meta, found := fresh.Peer().MetaOf(nd)
		if !found || meta.Attrs["probe"] != fmt.Sprint(nd) {
			t.Fatalf("node %d metadata not recovered from replay (found=%v, meta=%+v)", nd, found, meta)
		}
		data, _ := fresh.Peer().DataOf(nd)
		if string(data) != fmt.Sprintf("payload-%d", nd) {
			t.Fatalf("node %d data not recovered from replay: %q", nd, data)
		}
	}
	t.Logf("replay restored %d hosted nodes (%d WAL records, incarnation %d)",
		hosted, len(rs.Mutations), rs.Incarnation)

	nodes[victim], transports[victim] = fresh, freshTr
	StartTCPNode(fresh, freshTr)

	// Phase 4: readmission with delta-only reconcile.
	wait(15*time.Second, "survivors to readmit the restarted peer", func() bool {
		if !fresh.Membership().Joined() {
			return false
		}
		for _, i := range survivors {
			if stateAt(i, victim) != membership.Alive {
				return false
			}
		}
		return true
	})
	wait(15*time.Second, "the successor to answer the reconcile offer", func() bool {
		return counterAt(int(successor), "terradir_persist_reconcile_entries_sent_total")+
			counterAt(int(successor), "terradir_persist_reconcile_entries_skipped_total") > 0
	})
	sent := counterAt(int(successor), "terradir_persist_reconcile_entries_sent_total")
	skipped := counterAt(int(successor), "terradir_persist_reconcile_entries_skipped_total")
	t.Logf("reconcile: %d entries sent, %d skipped (victim hosts %d)", sent, skipped, hosted)
	if skipped == 0 {
		t.Error("reconcile skipped nothing: the digest did not suppress already-held entries")
	}
	if int(sent)*4 >= hosted {
		t.Errorf("reconcile streamed %d entries against %d locally replayed — not a delta", sent, hosted)
	}
	// No survivor pushed a full warmup stream: the HasState flag suppressed
	// them all; the rejoiner recovered locally and pulled only the delta.
	for _, i := range survivors {
		if got := counterAt(i, "terradir_warmup_streams_total"); got != warmupsBefore[i] {
			t.Errorf("server %d sent %d full warmup stream(s) to the restarted peer", i, got-warmupsBefore[i])
		}
	}

	// Phase 5: ownership reverts and the whole cluster serves traffic,
	// including owner-grade answers straight from replayed state.
	wait(10*time.Second, "ownership to revert to the restarted peer", func() bool {
		for _, i := range survivors {
			if nodes[i].Ownership().Owner(probes[0]) != victim {
				return false
			}
		}
		return true
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	res, err := fresh.Lookup(ctx, probes[0])
	cancel()
	if err != nil || !res.OK {
		t.Fatalf("restarted peer failed to resolve its own node %d: %v %+v", probes[0], err, res)
	}
	if res.Meta.Attrs["probe"] != fmt.Sprint(probes[0]) {
		t.Errorf("lookup served stale metadata %+v, want replayed probe attr", res.Meta)
	}
	const final = 300
	if ok := lookups(final, []int{0, 1, 2, 3, 4}); ok*100 < final*99 {
		t.Fatalf("post-restart success rate %d/%d, want ≥99%%", ok, final)
	}
}
