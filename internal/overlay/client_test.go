package overlay

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
)

// Tests for the client-side operations (Get / fetchData / Search) beyond the
// happy paths covered in overlay_test.go: replica misses, dead hosts,
// timeouts and cancellation.

func TestFetchDataReplicaMiss(t *testing.T) {
	c := startLocal(t, 4, nil)
	target := core.NodeID(10)
	owner := c.OwnerOf(target)
	nonOwner := core.ServerID((int(owner) + 1) % 4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A live server that does not hold the data answers OK=false, which the
	// client classifies as errNoData (distinct from a transport failure).
	_, err := c.Node(int((owner+2)%4)).fetchData(ctx, nonOwner, target)
	if !errors.Is(err, errNoData) {
		t.Fatalf("fetchData from non-owner: %v, want errNoData", err)
	}
}

func TestFetchDataFromSelf(t *testing.T) {
	c := startLocal(t, 4, nil)
	target := core.NodeID(10)
	owner := c.OwnerOf(target)
	ctx := context.Background()
	// Local miss: the owner itself, but nothing stored.
	if _, err := c.Node(int(owner)).fetchData(ctx, owner, target); !errors.Is(err, errNoData) {
		t.Fatalf("local miss: %v, want errNoData", err)
	}
}

// TestGetSelfHostedRace runs Get for nodes the calling server hosts itself
// while that server's loops rewrite the hosted map underneath: data writes,
// replica installs and evictions, and — on a residency-capped node — cold
// loads and demotions. The data step must go through the event loop
// (run with -race: reading hosted state on the caller's goroutine is a
// concurrent map read and write), and a cold node must load, not answer
// "no data".
func TestGetSelfHostedRace(t *testing.T) {
	get := func(t *testing.T, n *Node, dest core.NodeID, want string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, data, err := n.Get(ctx, dest)
		if err != nil || string(data) != want {
			t.Errorf("Get(%d) = %q, %v; want %q", dest, data, err, want)
		}
	}

	t.Run("installs", func(t *testing.T) {
		c := startLocal(t, 2, nil)
		n, other := c.Node(0), c.Node(1)
		var mine, theirs []core.NodeID
		for nd := core.NodeID(0); int(nd) < testTree().Len(); nd++ {
			if c.OwnerOf(nd) == 0 {
				mine = append(mine, nd)
			} else {
				theirs = append(theirs, nd)
			}
		}
		n.Inspect(func(p *core.Peer) {
			for _, nd := range mine {
				p.SetData(nd, []byte("v"))
			}
		})
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
				nd := theirs[i%len(theirs)]
				var pl core.ReplicaPayload
				other.Inspect(func(p *core.Peer) {
					if b, ok := p.BuildReplicaPayload(nd); ok {
						pl = b
					}
				})
				n.Inspect(func(p *core.Peer) {
					p.InstallReplica(&pl, 1)
					p.SetData(mine[i%len(mine)], []byte("v"))
				})
			}
		}()
		for i := 0; i < 300; i++ {
			get(t, n, mine[i%len(mine)], "v")
		}
		close(stop)
		wg.Wait()
	})

	t.Run("cold", func(t *testing.T) {
		const capEntries = 20
		n, tr := startColdNode(t, t.TempDir(), capEntries)
		defer func() {
			n.Stop()
			tr.Close()
		}()
		tree := n.tree
		n.Inspect(func(p *core.Peer) {
			for nd := core.NodeID(0); int(nd) < tree.Len(); nd++ {
				p.SetData(nd, []byte("v"))
			}
		})
		drainToCap(t, n, capEntries)
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
				n.writeSnapshot() // completes clean epochs, so loads keep evicting
			}
		}()
		src := rand.New(rand.NewSource(5))
		for i := 0; i < 300; i++ {
			get(t, n, core.NodeID(src.Intn(tree.Len())), "v")
		}
		close(stop)
		wg.Wait()
		if n.idxMisses.Value() == 0 {
			t.Fatal("no cold misses observed; Get never exercised the load path")
		}
	})
}

func TestFetchDataTimeoutOnDeadHost(t *testing.T) {
	c := startLocal(t, 4, func(o *LocalClusterOptions) {
		o.Fault = &FaultOptions{}
		o.Node.DataTimeout = 150 * time.Millisecond
	})
	target := core.NodeID(10)
	owner := c.OwnerOf(target)
	c.Fault().Crash(owner)
	from := int((owner + 1) % 4)
	start := time.Now()
	_, err := c.Node(from).fetchData(context.Background(), owner, target)
	if err == nil || errors.Is(err, errNoData) {
		t.Fatalf("fetchData to crashed host: %v, want timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, DataTimeout not honored", elapsed)
	}
}

func TestFetchDataContextCancel(t *testing.T) {
	c := startLocal(t, 4, func(o *LocalClusterOptions) {
		o.Fault = &FaultOptions{}
		o.Node.DataTimeout = time.Minute // the context must win
	})
	target := core.NodeID(10)
	owner := c.OwnerOf(target)
	c.Fault().Crash(owner)
	from := int((owner + 1) % 4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := c.Node(from).fetchData(ctx, owner, target)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetchData: %v, want context.Canceled", err)
	}
}

func TestGetSurfacesLookupFailure(t *testing.T) {
	c := startLocal(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := c.Node(0).Get(ctx, core.NodeID(c.Tree().Len()+5)); err == nil {
		t.Fatal("Get of an out-of-range node succeeded")
	}
}

func TestSearchDepthZero(t *testing.T) {
	c := startLocal(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	name := c.Tree().Name(0) // the root
	out, err := c.Node(0).Search(ctx, name, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Depth != 0 || !out[0].OK || out[0].Node != 0 {
		t.Fatalf("depth-0 search: %+v", out)
	}
}

func TestSearchRespectsContext(t *testing.T) {
	c := startLocal(t, 4, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the first lookup must fail and surface the error
	if _, err := c.Node(0).Search(ctx, c.Tree().Name(0), 3, 0); err == nil {
		t.Fatal("search with a cancelled context succeeded")
	}
}
