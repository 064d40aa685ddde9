package gateway

import "terradir/internal/telemetry"

// metrics bundles every gateway series registered on the (possibly shared)
// telemetry registry. All names carry the terradir_gw_ prefix so a gateway
// scraped alongside peers is unambiguous.
type metrics struct {
	shedHTTP *telemetry.Counter
	shedWire *telemetry.Counter

	coalesceHits *telemetry.Counter // requests absorbed into an in-flight lookup
	flights      *telemetry.Counter // upstream flights actually launched

	cacheHits   *telemetry.Counter // lookups whose dest had a cached replica set
	cacheMisses *telemetry.Counter

	upstreamQueries *telemetry.Counter // queries sent upstream (primary + hedge + retries)
	lateResults     *telemetry.Counter // results for cancelled/completed attempts

	hedgeFired *telemetry.Counter
	hedgeWon   *telemetry.Counter // hedge attempt answered first

	timeouts  *telemetry.Counter
	ejections *telemetry.Counter // upstream marked unhealthy by the prober

	latency         *telemetry.Histogram // end-to-end lookup seconds (client view)
	upstreamLatency *telemetry.Histogram // per-attempt upstream seconds (feeds hedge p99)
}

func newMetrics(reg *telemetry.Registry) *metrics {
	lat := telemetry.HistogramOpts{Min: 1e-5, Max: 100, BucketsPerDecade: 16}
	return &metrics{
		shedHTTP: reg.Counter("terradir_gw_shed_total", "requests refused by admission control", "surface", "http"),
		shedWire: reg.Counter("terradir_gw_shed_total", "requests refused by admission control", "surface", "wire"),

		coalesceHits: reg.Counter("terradir_gw_coalesce_hits_total", "requests absorbed into an already in-flight lookup for the same node"),
		flights:      reg.Counter("terradir_gw_flights_total", "coalesced upstream flights launched"),

		cacheHits:   reg.Counter("terradir_gw_cache_hits_total", "flights whose destination had a cached replica set"),
		cacheMisses: reg.Counter("terradir_gw_cache_misses_total", "flights routed without cached replica information"),

		upstreamQueries: reg.Counter("terradir_gw_upstream_queries_total", "lookup queries sent to upstream peers"),
		lateResults:     reg.Counter("terradir_gw_late_results_total", "upstream results arriving after their attempt was cancelled or won"),

		hedgeFired: reg.Counter("terradir_gw_hedge_fired_total", "hedge attempts issued after the hedge delay"),
		hedgeWon:   reg.Counter("terradir_gw_hedge_won_total", "flights where the hedge attempt answered first"),

		timeouts:  reg.Counter("terradir_gw_lookup_timeouts_total", "flights that exhausted the upstream timeout"),
		ejections: reg.Counter("terradir_gw_upstream_ejections_total", "upstreams marked unhealthy by probing"),

		latency:         reg.Histogram("terradir_gw_latency_seconds", "end-to-end gateway lookup latency", lat),
		upstreamLatency: reg.Histogram("terradir_gw_upstream_latency_seconds", "per-attempt upstream lookup latency", lat),
	}
}
