package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/rng"
	"terradir/internal/workload"
)

// TestGatewayE2E is the PR's acceptance test: a live 3-peer TCP overlay with
// fast SWIM membership behind one gateway's HTTP surface.
//
// Phase 1 — flash crowd: 64 barrier-released requests for one hot name
// coalesce, so upstream queries stay far below client requests.
//
// Phase 2 — churn: 1000 Zipf-distributed lookups with peer 2 crashed
// mid-run. Hedges and retries cover the detection blind window and the
// survivors' partition takeover; client-visible success stays ≥ 99%.
//
// All assertions go through the telemetry registry; run under -race in CI.
func TestGatewayE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipping in -short mode")
	}
	// 5ms of latency on the peers' outbound path keeps flights open long
	// enough for the flash crowd to coalesce over real HTTP.
	c := startCluster(t, 3, true, peerSetup{latency: 5 * time.Millisecond})
	g := c.startGateway(nil)
	addr, err := g.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	lookup := func(name string) (int, lookupResponse, error) {
		resp, err := cl.Get(fmt.Sprintf("http://%s/lookup?name=%s", addr, name))
		if err != nil {
			return 0, lookupResponse{}, err
		}
		defer resp.Body.Close()
		var body lookupResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return resp.StatusCode, lookupResponse{}, err
		}
		return resp.StatusCode, body, nil
	}

	// ---- Phase 1: flash crowd on one hot name (owned by a survivor). ----
	hot := c.ownedNode(0)
	hotName := c.tree.Name(hot)
	before := g.Registry().Snapshot()
	const crowd = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	var crowdOK atomic.Int64
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			status, body, err := lookup(hotName)
			if err == nil && status == http.StatusOK && body.OK {
				crowdOK.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if crowdOK.Load() != crowd {
		t.Fatalf("flash crowd: %d/%d succeeded", crowdOK.Load(), crowd)
	}
	mid := g.Registry().Snapshot()
	hits := mid["terradir_gw_coalesce_hits_total"] - before["terradir_gw_coalesce_hits_total"]
	upstream := mid["terradir_gw_upstream_queries_total"] - before["terradir_gw_upstream_queries_total"]
	t.Logf("flash crowd: %d requests, %g coalesce hits, %g upstream queries", crowd, hits, upstream)
	if hits < 1 {
		t.Fatal("flash crowd produced no coalesce hits")
	}
	if upstream >= crowd/2 {
		t.Fatalf("upstream queries %g not ≪ %d client requests", upstream, crowd)
	}

	// ---- Phase 2: 1000 Zipf lookups, peer 2 crashed mid-run. ----
	const total = 1000
	const crashAt = 300
	w := workload.UZipf(c.tree.Len(), rng.New(42), 0.9, 1000, 60)
	names := make([]string, total)
	for i := range names {
		names[i] = c.tree.Name(core.NodeID(w.Dest(float64(i) * 0.001)))
	}

	var issued, succeeded, failed atomic.Int64
	var crashOnce sync.Once
	work := make(chan string, total)
	for _, n := range names {
		work <- n
	}
	close(work)
	var wg2 sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for name := range work {
				if issued.Add(1) == crashAt {
					crashOnce.Do(func() {
						t.Logf("crashing peer 2 after %d requests", crashAt)
						c.crash(2)
					})
				}
				status, body, err := lookup(name)
				if err == nil && status == http.StatusOK && body.OK {
					succeeded.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}()
	}
	wg2.Wait()

	snap := g.Registry().Snapshot()
	okRate := float64(succeeded.Load()) / float64(total)
	t.Logf("churn run: %d/%d ok (%.2f%%), hedges fired=%g won=%g, upstream queries=%g, ejections=%g, late=%g",
		succeeded.Load(), total, 100*okRate,
		snap["terradir_gw_hedge_fired_total"], snap["terradir_gw_hedge_won_total"],
		snap["terradir_gw_upstream_queries_total"],
		snap["terradir_gw_upstream_ejections_total"], snap["terradir_gw_late_results_total"])
	if okRate < 0.99 {
		t.Fatalf("success rate %.4f < 0.99 across the crash", okRate)
	}
	if snap["terradir_gw_hedge_fired_total"] < 1 {
		t.Fatal("no hedges fired across a peer crash")
	}
	if snap["terradir_gw_upstream_ejections_total"] < 1 {
		t.Fatal("prober never ejected the crashed peer")
	}
}
