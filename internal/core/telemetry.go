package core

import (
	"sync/atomic"

	"terradir/internal/telemetry"
)

// counter names one event a peer counts. Each event is counted once, in the
// peer's ledger, by whichever executor saw it; Stats fields that are sums of
// events (Processed, Forwarded, ResultsSent, ControlSent) are derived in
// StatsView, and the registry families read the same cells.
type counter uint8

const (
	// Final routing decisions: every processed query lands in exactly one.
	ctrResolved counter = iota
	ctrFailedTTL
	ctrFailedNoRoute
	ctrCacheHits       // forward via a cached pointer
	ctrDigestShortcuts // forward via a digest hit
	ctrContextHops     // forward via neighbor context

	ctrSpanReports // trace span reports sent
	ctrSendControl // replication control messages (sendControl)
	ctrReplicaInstalls
	ctrReplicaEvictions
	ctrSessionsStarted
	ctrSessionsAborted
	ctrSessionsOK
	ctrStaleSelfPurged
	ctrServerPurges
	ctrPurgedEntries
	ctrOwnershipAdopts
	ctrOwnershipReleases
	ctrLookupReattempts // lookups this peer initiated, sent again unanswered
	numCounters
)

// ledger is a peer's event counters. Both executors write it — the loop and
// any number of fast-path goroutines — so every cell is atomic, and any
// goroutine may read it.
type ledger [numCounters]atomic.Int64

func (l *ledger) inc(c counter) { l[c].Add(1) }

// StatsView returns the peer's counters. Safe from any goroutine; each field
// is read once, so a view taken while queries run may mix cells a few events
// apart, but derived fields always equal the sums of the fields shown.
func (p *Peer) StatsView() Stats {
	l := &p.led
	s := Stats{
		Resolved:          l[ctrResolved].Load(),
		FailedTTL:         l[ctrFailedTTL].Load(),
		FailedNoRoute:     l[ctrFailedNoRoute].Load(),
		CacheHits:         l[ctrCacheHits].Load(),
		DigestShortcuts:   l[ctrDigestShortcuts].Load(),
		ContextHops:       l[ctrContextHops].Load(),
		SpanReports:       l[ctrSpanReports].Load(),
		ReplicaInstalls:   l[ctrReplicaInstalls].Load(),
		ReplicaEvictions:  l[ctrReplicaEvictions].Load(),
		SessionsStarted:   l[ctrSessionsStarted].Load(),
		SessionsAborted:   l[ctrSessionsAborted].Load(),
		SessionsOK:        l[ctrSessionsOK].Load(),
		StaleSelfPurged:   l[ctrStaleSelfPurged].Load(),
		ServerPurges:      l[ctrServerPurges].Load(),
		PurgedEntries:     l[ctrPurgedEntries].Load(),
		OwnershipAdopts:   l[ctrOwnershipAdopts].Load(),
		OwnershipReleases: l[ctrOwnershipReleases].Load(),
		LookupReattempts:  l[ctrLookupReattempts].Load(),
	}
	s.Forwarded = s.CacheHits + s.DigestShortcuts + s.ContextHops
	s.ResultsSent = s.Resolved + s.FailedTTL + s.FailedNoRoute
	s.Processed = s.ResultsSent + s.Forwarded
	s.ControlSent = l[ctrSendControl].Load() + s.SpanReports
	return s
}

// CountLookupReattempt counts one unanswered lookup sent again; any goroutine.
func (p *Peer) CountLookupReattempt() { p.led.inc(ctrLookupReattempts) }

// peerTelemetry holds the registry metrics that have no ledger cell: snapshot
// publication, which only a live driver does. nil until AttachTelemetry, so
// an unattached peer (the simulator's) pays a single pointer test.
type peerTelemetry struct {
	publishes      *telemetry.Counter
	publishSeconds *telemetry.Histogram
}

// AttachTelemetry wires the peer's protocol events into reg. labels are
// alternating key, value pairs applied to every metric (the overlay passes
// server="<id>" so a shared registry keeps per-server series). The ledger
// families are scrape-time functions over this peer's ledger: attaching a
// new peer under the same labels points them at the new peer, whose counts
// start from zero. Call before the peer starts handling messages.
func (p *Peer) AttachTelemetry(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		p.tel = nil
		return
	}
	family := func(name, help string, cs ...counter) {
		reg.CounterFunc(name, help, func() float64 {
			var v int64
			for _, c := range cs {
				v += p.led[c].Load()
			}
			return float64(v)
		}, labels...)
	}
	family("terradir_queries_forwarded_total", "Queries forwarded to another server.",
		ctrCacheHits, ctrDigestShortcuts, ctrContextHops)
	family("terradir_cache_hits_total", "Forwards routed via a cached pointer (§2.4 path caching).", ctrCacheHits)
	family("terradir_cache_misses_total", "Forwards where no cached pointer won (neighbor context or digest shortcut used instead).",
		ctrDigestShortcuts, ctrContextHops)
	family("terradir_digest_shortcuts_total", "Forwards redirected by an inverse-mapping digest hit (§3.6.1).", ctrDigestShortcuts)
	family("terradir_replica_installs_total", "Replicas installed on this server.", ctrReplicaInstalls)
	family("terradir_replica_evictions_total", "Replicas evicted from this server (Frepl bound or age).", ctrReplicaEvictions)
	family("terradir_trace_span_reports_total", "Trace span reports sent to query initiators.", ctrSpanReports)
	family("terradir_ownership_adoptions_total", "Namespace nodes provisionally adopted from dead owners.", ctrOwnershipAdopts)
	family("terradir_ownership_releases_total", "Adopted namespace nodes handed back to returned owners.", ctrOwnershipReleases)
	family("terradir_lookup_reattempts_total", "Lookups initiated here that went unanswered and were sent again.", ctrLookupReattempts)
	p.tel = &peerTelemetry{
		publishes: reg.Counter("terradir_snapshot_publishes_total",
			"Routing snapshots published for the lock-free fast path (publishes that found nothing changed are not counted).", labels...),
		publishSeconds: reg.Histogram("terradir_snapshot_publish_seconds",
			"Event-loop time one snapshot publish took.",
			telemetry.HistogramOpts{Min: 1e-7, Max: 1}, labels...),
	}
}
