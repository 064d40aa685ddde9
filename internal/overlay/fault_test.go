package overlay

import (
	"context"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
)

// recordingTransport captures sends for fault-injection assertions.
type recordingTransport struct {
	mu    sync.Mutex
	sends [][2]core.ServerID
}

func (r *recordingTransport) Send(from, to core.ServerID, m core.Message) error {
	r.mu.Lock()
	r.sends = append(r.sends, [2]core.ServerID{from, to})
	r.mu.Unlock()
	return nil
}

func (r *recordingTransport) Close() error { return nil }

func (r *recordingTransport) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sends)
}

func probe() core.Message { return &core.LoadProbeMsg{Session: 1, From: 0} }

func TestFaultCrashDropsBothDirections(t *testing.T) {
	inner := &recordingTransport{}
	f := NewFaultTransport(inner, FaultOptions{Seed: 3})
	f.Crash(2)
	if !f.Crashed(2) || f.Crashed(1) {
		t.Fatal("crash bookkeeping wrong")
	}
	_ = f.Send(0, 2, probe()) // to crashed
	_ = f.Send(2, 0, probe()) // from crashed
	_ = f.Send(0, 1, probe()) // unaffected
	if inner.count() != 1 {
		t.Fatalf("inner saw %d sends, want 1", inner.count())
	}
	if s := f.Stats(); s.FaultDrops != 2 {
		t.Fatalf("fault drops = %d, want 2", s.FaultDrops)
	}
	f.Revive(2)
	_ = f.Send(0, 2, probe())
	if inner.count() != 2 {
		t.Fatal("revived peer still dropped")
	}
}

func TestFaultAsymmetricPartition(t *testing.T) {
	inner := &recordingTransport{}
	f := NewFaultTransport(inner, FaultOptions{Seed: 3})
	f.Block(0, 1)
	_ = f.Send(0, 1, probe()) // blocked direction
	_ = f.Send(1, 0, probe()) // reverse flows
	if inner.count() != 1 {
		t.Fatalf("inner saw %d sends, want 1 (asymmetric block)", inner.count())
	}
	f.Unblock(0, 1)
	_ = f.Send(0, 1, probe())
	if inner.count() != 2 {
		t.Fatal("unblocked edge still dropped")
	}

	f.Partition([]core.ServerID{0, 1}, []core.ServerID{2})
	_ = f.Send(0, 2, probe())
	_ = f.Send(2, 1, probe())
	_ = f.Send(0, 1, probe()) // same side: flows
	if inner.count() != 3 {
		t.Fatalf("inner saw %d sends, want 3 (bidirectional partition)", inner.count())
	}
	f.HealPartition([]core.ServerID{0, 1}, []core.ServerID{2})
	_ = f.Send(0, 2, probe())
	if inner.count() != 4 {
		t.Fatal("healed partition still dropped")
	}
}

func TestFaultDropProbabilityDeterministic(t *testing.T) {
	run := func() (delivered int) {
		inner := &recordingTransport{}
		f := NewFaultTransport(inner, FaultOptions{DropProb: 0.5, Seed: 42})
		for i := 0; i < 200; i++ {
			_ = f.Send(0, 1, probe())
		}
		return inner.count()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different outcomes: %d vs %d", a, b)
	}
	if a < 60 || a > 140 {
		t.Fatalf("drop-prob 0.5 delivered %d of 200", a)
	}
	inner := &recordingTransport{}
	f := NewFaultTransport(inner, FaultOptions{DropProb: 1, Seed: 1})
	for i := 0; i < 20; i++ {
		_ = f.Send(0, 1, probe())
	}
	if inner.count() != 0 {
		t.Fatalf("drop-prob 1 delivered %d messages", inner.count())
	}
	f.SetDropProb(0)
	_ = f.Send(0, 1, probe())
	if inner.count() != 1 {
		t.Fatal("drop-prob 0 dropped a message")
	}
}

func TestFaultLatencyDefersDelivery(t *testing.T) {
	inner := &recordingTransport{}
	f := NewFaultTransport(inner, FaultOptions{Latency: 30 * time.Millisecond, Seed: 3})
	_ = f.Send(0, 1, probe())
	if inner.count() != 0 {
		t.Fatal("latency-injected message delivered synchronously")
	}
	deadline := time.Now().Add(3 * time.Second)
	for inner.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed message never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.Delayed() != 1 {
		t.Fatalf("delayed counter = %d, want 1", f.Delayed())
	}
	f.SetLatency(0, 0)
	_ = f.Send(0, 1, probe())
	if inner.count() != 2 {
		t.Fatal("zero latency no longer synchronous")
	}
}

func TestFaultOverLocalClusterKill(t *testing.T) {
	// End to end over the live local overlay: crash a peer and verify the
	// cluster keeps answering lookups for nodes the dead peer doesn't own.
	tree := testTree()
	c, err := NewLocalCluster(tree, LocalClusterOptions{
		Servers: 4,
		Seed:    11,
		Fault:   &FaultOptions{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	if c.Fault() == nil {
		t.Fatal("cluster has no fault transport")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Warm: resolve a set of destinations owned by servers other than the
	// victim, so server 0 caches their maps (path-propagation caching).
	victim := 3
	var dests []core.NodeID
	for nd := 0; nd < tree.Len() && len(dests) < 12; nd += 17 {
		if int(c.OwnerOf(core.NodeID(nd))) == victim {
			continue
		}
		dests = append(dests, core.NodeID(nd))
	}
	for _, nd := range dests {
		if res, err := c.Lookup(ctx, 0, nd); err != nil || !res.OK {
			t.Fatalf("warm lookup %d: %v %+v", nd, err, res)
		}
	}
	// A result wakes its caller before server 0's loop absorbs it, and the
	// fast path routes on the loop's last publish. Inspect queues behind the
	// absorptions and holds the fast path closed until the loop republishes.
	c.Node(0).Inspect(func(*core.Peer) {})
	// Kill the victim. Cached soft state on server 0 must keep the same
	// destinations resolvable without ever touching the dead peer.
	c.KillServer(victim)
	for _, nd := range dests {
		lctx, lcancel := context.WithTimeout(ctx, 3*time.Second)
		res, err := c.Lookup(lctx, 0, nd)
		lcancel()
		if err != nil || !res.OK {
			t.Fatalf("lookup %d after kill: %v %+v", nd, err, res)
		}
	}
}
