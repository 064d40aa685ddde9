package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"terradir/internal/telemetry"
)

// ledgerFamilies is what each ledger-backed registry family must read, as a
// function of the peer's StatsView.
var ledgerFamilies = map[string]func(Stats) int64{
	"terradir_queries_forwarded_total":   func(s Stats) int64 { return s.Forwarded },
	"terradir_cache_hits_total":          func(s Stats) int64 { return s.CacheHits },
	"terradir_cache_misses_total":        func(s Stats) int64 { return s.DigestShortcuts + s.ContextHops },
	"terradir_digest_shortcuts_total":    func(s Stats) int64 { return s.DigestShortcuts },
	"terradir_replica_installs_total":    func(s Stats) int64 { return s.ReplicaInstalls },
	"terradir_replica_evictions_total":   func(s Stats) int64 { return s.ReplicaEvictions },
	"terradir_trace_span_reports_total":  func(s Stats) int64 { return s.SpanReports },
	"terradir_ownership_adoptions_total": func(s Stats) int64 { return s.OwnershipAdopts },
	"terradir_ownership_releases_total":  func(s Stats) int64 { return s.OwnershipReleases },
	"terradir_lookup_reattempts_total":   func(s Stats) int64 { return s.LookupReattempts },
}

// checkLedgerFamilies fails unless every ledger-backed family p registered in
// reg reads its StatsView field, and every counter family but the snapshot
// publication count is ledger-backed.
func checkLedgerFamilies(t *testing.T, what string, p *Peer, reg *telemetry.Registry) {
	t.Helper()
	snap, s := reg.Snapshot(), p.StatsView()
	for name, field := range ledgerFamilies {
		got, ok := snap[name+`{server="0"}`]
		if !ok {
			t.Fatalf("%s: family %s not registered", what, name)
		}
		if want := field(s); got != float64(want) {
			t.Fatalf("%s: %s = %v, StatsView says %d (%+v)", what, name, got, want, s)
		}
	}
	for key := range snap {
		name, _, _ := strings.Cut(key, "{")
		if _, ok := ledgerFamilies[name]; !ok && strings.HasSuffix(name, "_total") && name != "terradir_snapshot_publishes_total" {
			t.Fatalf("%s: counter family %s has no StatsView field in this test", what, name)
		}
	}
}

// routeEvent names the one decision counter a query moved.
func routeEvent(before, after Stats) string {
	switch {
	case after.Resolved > before.Resolved:
		return "resolve"
	case after.FailedTTL > before.FailedTTL:
		return "ttl-fail"
	case after.FailedNoRoute > before.FailedNoRoute:
		return "no-route-fail"
	case after.CacheHits > before.CacheHits:
		return "cache-forward"
	case after.DigestShortcuts > before.DigestShortcuts:
		return "digest-forward"
	case after.ContextHops > before.ContextHops:
		return "context-forward"
	}
	return "none"
}

// TestLedgerFamiliesMatchStatsView drives both executors of the routing
// decision, and the loop's replication and churn paths, through every event
// the ledger counts, and requires each registry family over the ledger to
// read what StatsView reports.
func TestLedgerFamiliesMatchStatsView(t *testing.T) {
	t.Run("events", func(t *testing.T) {
		want := []string{"resolve", "cache-forward", "digest-forward", "context-forward", "ttl-fail"}
		seen := map[string]bool{}
		for seed := uint64(1); seed <= 3000; seed++ {
			for _, exec := range []string{"fast", "loop"} {
				p, env, q := diffWorld(t, seed)
				reg := telemetry.NewRegistry()
				p.AttachTelemetry(reg, "server", "0")
				before := p.StatsView()
				if exec == "fast" {
					p.PublishSnapshot()
					if p.RoutingSnapshot().HandleQueryFast(q, env.now, NodeMap{}, env.Send, nil) == FastFallback {
						continue
					}
				} else {
					p.HandleQuery(q)
				}
				ev := exec + " " + routeEvent(before, p.StatsView())
				seen[ev] = true
				checkLedgerFamilies(t, fmt.Sprintf("seed %d %s", seed, ev), p, reg)
			}
		}
		for _, ev := range want {
			for _, exec := range []string{"fast", "loop"} {
				if !seen[exec+" "+ev] {
					t.Fatalf("no seed produced a %s on the %s executor (saw %v)", ev, exec, seen)
				}
			}
		}

		// The loop-only events: replica install and eviction, a dead-server
		// purge, and an adoption handed back; and the initiator's lookup
		// re-attempt.
		tree, ids := paperTree()
		p := newTestPeer(t, tree, 0, []NodeID{ids["/u/pub"]}, 1, DefaultConfig(), &fakeEnv{})
		reg := telemetry.NewRegistry()
		p.AttachTelemetry(reg, "server", "0")
		node := ids["/u/priv"]
		pl := ReplicaPayload{Node: node, Meta: Meta{Version: 1}, WeightHint: 1, SelfMap: SingleServerMap(1)}
		if !p.InstallReplica(&pl, 1) {
			t.Fatal("replica not installed")
		}
		checkLedgerFamilies(t, "install", p, reg)
		if !p.evictReplica(node) {
			t.Fatal("replica not evicted")
		}
		checkLedgerFamilies(t, "evict", p, reg)
		p.cache.Put(ids["/u/priv/people"], SingleServerMap(2))
		if p.PurgeServer(2, func(NodeID) ServerID { return 1 }) == 0 {
			t.Fatal("purge removed nothing")
		}
		checkLedgerFamilies(t, "purge", p, reg)
		if !p.AdoptOwnership(node, func(NodeID) ServerID { return 1 }) {
			t.Fatal("adoption did not happen")
		}
		checkLedgerFamilies(t, "adopt", p, reg)
		if !p.ReleaseOwnership(node) {
			t.Fatal("release did not happen")
		}
		checkLedgerFamilies(t, "release", p, reg)
		p.CountLookupReattempt()
		checkLedgerFamilies(t, "reattempt", p, reg)
		if s := p.StatsView(); s.ReplicaInstalls != 1 || s.ReplicaEvictions != 1 || s.ServerPurges != 1 ||
			s.OwnershipAdopts != 1 || s.OwnershipReleases != 1 || s.LookupReattempts != 1 {
			t.Fatalf("loop-only events not all counted once: %+v", s)
		}
	})

	// Scrapes race lookups on both executors: the registry and StatsView read
	// the ledger while the loop and fast-path goroutines write it.
	t.Run("concurrent-scrape", func(t *testing.T) {
		var p *Peer
		var env *fakeEnv
		var q *QueryMsg
		for seed := uint64(1); ; seed++ {
			p, env, q = diffWorld(t, seed)
			if q.TraceID == 0 || p.IsCold(q.Dest) || p.Hosts(q.Dest) {
				continue
			}
			p.PublishSnapshot()
			if p.RoutingSnapshot().HandleQueryFast(cloneQuery(q), env.now, NodeMap{}, func(ServerID, Message) {}, nil) != FastFallback {
				break
			}
		}
		reg := telemetry.NewRegistry()
		p.AttachTelemetry(reg, "server", "0")
		const lookups = 2000
		var wg sync.WaitGroup
		var fastServed atomic.Int64
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < lookups; i++ {
					if p.RoutingSnapshot().HandleQueryFast(cloneQuery(q), env.now, NodeMap{}, func(ServerID, Message) {}, nil) != FastFallback {
						fastServed.Add(1)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				p.HandleQuery(cloneQuery(q))
				env.take()
				if i%100 == 0 {
					p.PublishSnapshot()
				}
			}
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				reg.WritePrometheus(io.Discard)
				p.StatsView()
			}
		}()
		wg.Wait()
		<-done
		checkLedgerFamilies(t, "after the race", p, reg)
		want := 1 + lookups + fastServed.Load() // the probe, the loop's, the fast path's
		if s := p.StatsView(); s.Processed != want || s.SpanReports != want {
			t.Fatalf("counted %d decisions and %d span reports, want %d each", s.Processed, s.SpanReports, want)
		}
	})
}
