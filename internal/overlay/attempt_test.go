package overlay

import (
	"context"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/membership"
)

// queryLog records the query IDs a drop filter saw leave one server.
type queryLog struct {
	mu  sync.Mutex
	ids []uint64
}

func (l *queryLog) add(id uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ids = append(l.ids, id)
	return len(l.ids)
}

func (l *queryLog) get() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.ids...)
}

// remoteDest returns a node server 0 does not own.
func remoteDest(t *testing.T, c *LocalCluster) core.NodeID {
	t.Helper()
	for nd := 0; nd < c.Tree().Len(); nd++ {
		if c.OwnerOf(core.NodeID(nd)) != 0 {
			return core.NodeID(nd)
		}
	}
	t.Fatal("server 0 owns every node")
	return 0
}

func reattempts(n *Node) int64 { return n.Peer().StatsView().LookupReattempts }

// TestLookupReattemptsLostQuery drops the first query of a lookup as it
// leaves the initiator: the schedule sends a second attempt, under a fresh
// query ID, one LookupInterval later, and that one resolves.
func TestLookupReattemptsLostQuery(t *testing.T) {
	c := startLocal(t, 2, func(o *LocalClusterOptions) { o.Fault = &FaultOptions{} })
	var sent queryLog
	c.Fault().SetDropFilter(func(from, _ core.ServerID, m core.Message) bool {
		q, ok := m.(*core.QueryMsg)
		return ok && from == 0 && sent.add(q.QueryID) == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Lookup(ctx, 0, remoteDest(t, c))
	if err != nil || !res.OK {
		t.Fatalf("lookup after one lost attempt: %+v, %v", res, err)
	}
	if res.Latency < LookupInterval || res.Latency > LookupInterval+250*time.Millisecond {
		t.Fatalf("answered after %v, want about LookupInterval (%v)", res.Latency, LookupInterval)
	}
	if ids := sent.get(); len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("queries that left the initiator: %v, want two with different IDs", ids)
	}
	if got := reattempts(c.Node(0)); got != 1 {
		t.Fatalf("re-attempt cell reads %d, want 1", got)
	}
}

// TestLookupEndsLost drops every frame to the owner, with membership off so
// nothing routes around it: the lookup makes exactly LookupAttempts attempts
// and ends in FailLost at LookupTimeout, well inside the caller's context.
func TestLookupEndsLost(t *testing.T) {
	c := startLocal(t, 2, func(o *LocalClusterOptions) { o.Fault = &FaultOptions{} })
	var sent queryLog
	c.Fault().SetDropFilter(func(from, to core.ServerID, m core.Message) bool {
		if q, ok := m.(*core.QueryMsg); ok && from == 0 {
			sent.add(q.QueryID)
		}
		return to == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dest := remoteDest(t, c)
	start := time.Now()
	res, err := c.Lookup(ctx, 0, dest)
	took := time.Since(start)
	if err != nil || res.OK || res.Reason != core.FailLost || res.Node != dest {
		t.Fatalf("lookup to an unreachable owner: %+v, %v; want a FailLost result for node %d", res, err, dest)
	}
	if took < LookupTimeout || took > LookupTimeout+250*time.Millisecond {
		t.Fatalf("FailLost after %v, want LookupTimeout (%v)", took, LookupTimeout)
	}
	ids := sent.get()
	seen := map[uint64]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	if len(ids) != LookupAttempts || len(seen) != LookupAttempts {
		t.Fatalf("queries that left the initiator: %v, want %d with distinct IDs", ids, LookupAttempts)
	}
	if got := reattempts(c.Node(0)); got != LookupAttempts-1 {
		t.Fatalf("re-attempt cell reads %d, want %d", got, LookupAttempts-1)
	}
}

// TestTypedFailureNotReattempted: an answer is final, a typed failure
// included. With a one-hop TTL, lookups whose first hop is not a host end
// in FailTTL at once, and the schedule never sends them again — a retry must
// not hide a routing loop.
func TestTypedFailureNotReattempted(t *testing.T) {
	c := startLocal(t, 4, func(o *LocalClusterOptions) {
		o.Node.Config = core.DefaultConfig()
		o.Node.Config.MaxHops = 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	failed := 0
	for nd := 0; nd < c.Tree().Len(); nd++ {
		res, err := c.Lookup(ctx, 0, core.NodeID(nd))
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			continue
		}
		if res.Reason != core.FailTTL || res.Latency >= LookupInterval {
			t.Fatalf("lookup of node %d: %+v, want FailTTL well before a re-attempt is due", nd, res)
		}
		failed++
	}
	if failed == 0 {
		t.Fatal("no lookup ended in FailTTL; the test exercised nothing")
	}
	time.Sleep(LookupInterval + 100*time.Millisecond)
	if got := reattempts(c.Node(0)); got != 0 {
		t.Fatalf("re-attempt cell reads %d after %d typed failures, want 0", got, failed)
	}
}

// TestRepeatLookupAfterOwnerCrashSharedSeed is TestRepeatLookupAfterOwnerCrash
// with one membership protocol seed on all five nodes, so their failure
// detectors probe in step. Server 0 may declare the owner dead before a
// survivor it forwards through does; that survivor still routes the repeat
// into the crashed owner, and the query is lost. The lookup's next attempt,
// sent after the survivors have caught up, resolves at the successor.
func TestRepeatLookupAfterOwnerCrashSharedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("needs real-time failure detection")
	}
	const servers = 5
	const victim = core.ServerID(2)
	tree := testTree()
	owner := Assign(tree, servers, 11)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, servers)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	local := NewLocalTransport(0)
	fault := NewFaultTransport(local, FaultOptions{})
	nodes := make([]*Node, servers)
	for i := range nodes {
		n, err := NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf, Options{
			Seed:       11 + uint64(i)*7919,
			Membership: inProcessMembership(servers, churnProto(3)), // seed 94 on every node
		})
		if err != nil {
			t.Fatal(err)
		}
		n.SetTransport(fault)
		local.Register(n)
		nodes[i] = n
	}
	for _, n := range nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		local.Close()
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dest := ownedByServer(t, owner, victim)
	res, err := nodes[0].Lookup(ctx, dest)
	if err != nil || !res.OK {
		t.Fatalf("warm lookup failed: %+v, %v", res, err)
	}

	fault.Crash(victim)
	nodes[victim].Stop()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if st, _ := nodes[0].Membership().StateOf(victim); st == membership.Dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for server 0 to declare the victim dead")
		}
		time.Sleep(20 * time.Millisecond)
	}

	res, err = nodes[0].Lookup(ctx, dest)
	if err != nil || !res.OK {
		t.Fatalf("post-crash repeat lookup failed: %+v, %v", res, err)
	}
	for _, h := range res.Hosts {
		if h == victim {
			t.Fatalf("repeat lookup result names the crashed server: %+v", res.Hosts)
		}
	}
	t.Logf("repeat resolved after %v, %d re-attempts", res.Latency, reattempts(nodes[0]))
}
