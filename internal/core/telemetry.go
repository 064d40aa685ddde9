package core

import "terradir/internal/telemetry"

// peerTelemetry holds the registry-backed counters a peer increments on its
// hot paths. All fields are non-nil once attached; every increment site is
// guarded by a nil check on Peer.tel, so an unattached peer (the simulator
// path) pays a single pointer test.
type peerTelemetry struct {
	resolved        *telemetry.Counter
	forwarded       *telemetry.Counter
	failed          *telemetry.Counter
	cacheHits       *telemetry.Counter
	cacheMisses     *telemetry.Counter
	digestShortcuts *telemetry.Counter
	progress        *telemetry.Counter
	detours         *telemetry.Counter
	installs        *telemetry.Counter
	evictions       *telemetry.Counter
	highCrossings   *telemetry.Counter
	lowCrossings    *telemetry.Counter
	spanReports     *telemetry.Counter
	serverPurges    *telemetry.Counter
	purgedEntries   *telemetry.Counter
	adoptions       *telemetry.Counter
	releases        *telemetry.Counter

	// Routing-snapshot publication (PublishSnapshot): how often, how many
	// entries each publish re-froze, and how long it held the loop.
	publishes      *telemetry.Counter
	publishDirty   *telemetry.Histogram
	publishSeconds *telemetry.Histogram

	// aboveHigh tracks which side of the Thigh watermark the load was on at
	// the last check, so crossings count as edges rather than levels.
	aboveHigh bool
}

// AttachTelemetry wires the peer's protocol events into reg. labels are
// alternating key, value pairs applied to every metric (the overlay passes
// server="<id>" so a shared registry keeps per-server series). Counters are
// resolved by (name, labels), so re-attaching after a restart resumes the
// same series. Call before the peer starts handling messages; the peer is
// single-threaded, so attachment mid-stream would race with its own loop.
func (p *Peer) AttachTelemetry(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		p.tel = nil
		return
	}
	c := func(name, help string) *telemetry.Counter {
		return reg.Counter(name, help, labels...)
	}
	p.tel = &peerTelemetry{
		resolved:        c("terradir_lookups_resolved_total", "Lookups answered by this server (it hosted the destination)."),
		forwarded:       c("terradir_queries_forwarded_total", "Queries forwarded to another server."),
		failed:          c("terradir_lookups_failed_total", "Lookups this server terminated with a failure (TTL or no route)."),
		cacheHits:       c("terradir_cache_hits_total", "Forwards routed via a cached pointer (§2.4 path caching)."),
		cacheMisses:     c("terradir_cache_misses_total", "Forwards where no cached pointer won (neighbor context or digest shortcut used instead)."),
		digestShortcuts: c("terradir_digest_shortcuts_total", "Forwards redirected by an inverse-mapping digest hit (§3.6.1)."),
		progress:        c("terradir_routing_progress_total", "Forwarding steps that made incremental namespace progress (newDist < prevDist)."),
		detours:         c("terradir_routing_detours_total", "Forwarding steps that failed to improve on the sender's candidate distance."),
		installs:        c("terradir_replica_installs_total", "Replicas installed on this server."),
		evictions:       c("terradir_replica_evictions_total", "Replicas evicted from this server (Frepl bound or age)."),
		highCrossings:   c("terradir_load_high_watermark_crossings_total", "Times effective load rose across the Thigh watermark."),
		lowCrossings:    c("terradir_load_low_watermark_crossings_total", "Times effective load fell back below the Thigh watermark."),
		spanReports:     c("terradir_trace_span_reports_total", "Out-of-band trace span reports sent to query initiators."),
		serverPurges:    c("terradir_server_purges_total", "Dead-server purges applied to this peer's soft state."),
		purgedEntries:   c("terradir_purged_entries_total", "Soft-state references removed by dead-server purges."),
		adoptions:       c("terradir_ownership_adoptions_total", "Namespace nodes provisionally adopted from dead owners."),
		releases:        c("terradir_ownership_releases_total", "Adopted namespace nodes handed back to returned owners."),
		publishes:       c("terradir_snapshot_publishes_total", "Routing snapshots published for the lock-free fast path (publishes that found nothing changed are not counted)."),
		publishDirty: reg.Histogram("terradir_snapshot_dirty_entries",
			"Entries (hosted nodes, neighbor maps, cache slots) a snapshot publish re-froze.",
			telemetry.HistogramOpts{Min: 1, Max: 1e5}, labels...),
		publishSeconds: reg.Histogram("terradir_snapshot_publish_seconds",
			"Event-loop time one snapshot publish took.",
			telemetry.HistogramOpts{Min: 1e-7, Max: 1}, labels...),
	}
}

// trackWatermark counts Thigh watermark edges given the current side.
func (p *Peer) trackWatermark(above bool) {
	if p.tel == nil {
		return
	}
	if above && !p.tel.aboveHigh {
		p.tel.highCrossings.Inc()
	} else if !above && p.tel.aboveHigh {
		p.tel.lowCrossings.Inc()
	}
	p.tel.aboveHigh = above
}
