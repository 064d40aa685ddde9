package overlay

import (
	"context"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/membership"
)

// TestResultCachePurge is the unit-level regression for the lookup result
// side-cache staleness bug: a purged server must vanish from remembered
// result maps, late results naming it must be filtered, and a revived server
// must be admitted again.
func TestResultCachePurge(t *testing.T) {
	c := startLocal(t, 4, nil)
	n := c.Node(0)
	const dead = core.ServerID(2)

	n.rememberResult(10, core.NodeMap{Servers: []core.ServerID{1, dead}})
	n.rememberResult(11, core.NodeMap{Servers: []core.ServerID{dead}})
	n.purgeResults(dead)

	if m := n.resultHint(10); m.Contains(dead) {
		t.Errorf("hint for node 10 still names purged server: %+v", m.Servers)
	} else if m.Len() != 1 {
		t.Errorf("hint for node 10 lost its surviving host: %+v", m.Servers)
	}
	if m := n.resultHint(11); m.Len() != 0 {
		t.Errorf("hint for node 11 should be dropped entirely, got %+v", m.Servers)
	}

	// A result that was in flight when the death was processed must not
	// resurrect the dead server.
	n.rememberResult(12, core.NodeMap{Servers: []core.ServerID{dead, 3}})
	if m := n.resultHint(12); m.Contains(dead) {
		t.Errorf("late result re-inserted purged server: %+v", m.Servers)
	} else if !m.Contains(3) {
		t.Errorf("late result's surviving host was dropped: %+v", m.Servers)
	}
	n.rememberResult(13, core.NodeMap{Servers: []core.ServerID{dead}})
	if m := n.resultHint(13); m.Len() != 0 {
		t.Errorf("all-dead late result should be ignored, got %+v", m.Servers)
	}

	n.reviveResults(dead)
	n.rememberResult(14, core.NodeMap{Servers: []core.ServerID{dead}})
	if m := n.resultHint(14); !m.Contains(dead) {
		t.Errorf("revived server still filtered from results: %+v", m.Servers)
	}
}

// TestResultCachePurgeOnCrash is the end-to-end regression for the same bug:
// cache a lookup result, crash the server it names, and repeat the lookup.
// Before the fix the repeat could be answered from (or hinted by) the stale
// side-cache entry naming the dead server.
func TestResultCachePurgeOnCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("needs real-time failure detection")
	}
	proto := churnProto(3)
	c := startLocal(t, 5, func(o *LocalClusterOptions) {
		o.Fault = &FaultOptions{}
		o.Membership = &proto
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const victim = core.ServerID(2)
	var dest core.NodeID
	found := false
	for nd := 0; nd < c.Tree().Len(); nd++ {
		if c.OwnerOf(core.NodeID(nd)) == victim {
			dest, found = core.NodeID(nd), true
			break
		}
	}
	if !found {
		t.Fatalf("server %d owns nothing", victim)
	}

	// Cache a result that names the victim.
	res, err := c.Lookup(ctx, 0, dest)
	if err != nil || !res.OK {
		t.Fatalf("warm lookup failed: %+v, %v", res, err)
	}
	if m := c.Node(0).resultHint(dest); !m.Contains(victim) {
		t.Fatalf("test setup: hint for node %d does not name the owner %d: %+v",
			dest, victim, m.Servers)
	}

	c.Fault().Crash(victim)
	c.Node(int(victim)).Stop()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if st, _ := c.Node(0).Membership().StateOf(victim); st == membership.Dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for server 0 to declare the victim dead")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if m := c.Node(0).resultHint(dest); m.Contains(victim) {
		t.Fatalf("result side-cache still names the crashed server: %+v", m.Servers)
	}
	// The repeat lookup must succeed without the victim among its hosts.
	res, err = c.Lookup(ctx, 0, dest)
	if err != nil || !res.OK {
		t.Fatalf("post-crash repeat lookup failed: %+v, %v", res, err)
	}
	for _, h := range res.Hosts {
		if h == victim {
			t.Fatalf("repeat lookup result names the crashed server: %+v", res.Hosts)
		}
	}
}
