package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/overlay"
	"terradir/internal/telemetry"
	"terradir/internal/wire"
)

// tapState is what the taps of one traced run share: a switch and counters.
// The tap is the benchmark's span boundary at the transport: it counts
// messages by kind, times the send call, and samples encoded frames for the
// wire layer's replay — all from outside the program.
type tapState struct {
	on atomic.Bool

	queries, results, spans, control atomic.Uint64
	sendNanos                        atomic.Int64

	sampled atomic.Uint64 // queries and results seen while on
	mu      sync.Mutex
	samples [][]byte // encoded query and result frames, every sampleEvery-th of them
}

const (
	sampleEvery = 16
	maxSamples  = 1024
)

// tapTransport wraps one overlay.Transport with the shared tap.
type tapTransport struct {
	inner overlay.Transport
	*tapState
}

func newTap() *tapTransport { return &tapTransport{tapState: &tapState{}} }

func (t *tapTransport) Send(from, to core.ServerID, m core.Message) error {
	if !t.on.Load() {
		return t.inner.Send(from, to, m)
	}
	sample := false
	switch m.(type) {
	case *core.QueryMsg:
		t.queries.Add(1)
		sample = true
	case *core.ResultMsg:
		t.results.Add(1)
		sample = true
	case *core.TraceSpanMsg:
		t.spans.Add(1)
	default:
		t.control.Add(1)
	}
	if sample && t.sampled.Add(1)%sampleEvery == 0 {
		// Encode before the send: afterwards the message belongs to the
		// receiver.
		if b, err := wire.Encode(m); err == nil {
			t.mu.Lock()
			if len(t.samples) < maxSamples {
				t.samples = append(t.samples, b)
			}
			t.mu.Unlock()
		}
	}
	t0 := time.Now()
	err := t.inner.Send(from, to, m)
	t.sendNanos.Add(int64(time.Since(t0)))
	return err
}

func (t *tapTransport) Close() error { return t.inner.Close() }

// Stats and SetReadHistogram forward to the wrapped transport, so a tapped
// node registers the same transport metrics as an untapped one.
func (t *tapTransport) Stats() overlay.TransportStats {
	if sr, ok := t.inner.(overlay.StatsReporter); ok {
		return sr.Stats()
	}
	return overlay.TransportStats{}
}

func (t *tapTransport) SetReadHistogram(h *telemetry.Histogram) {
	if hs, ok := t.inner.(overlay.ReadHistogramSetter); ok {
		hs.SetReadHistogram(h)
	}
}

// layer declares one per-layer metric.
type layer struct{ name, unit, better string }

// layerDecl lists every per-layer metric in BENCHMARK.json's order. A traced
// run reports all of them on every workload; a layer that does no work in a
// workload (wire without sockets, persist without disk) reports 0 there.
var layerDecl = []layer{
	{"namespace.distance_ns", "ns", "lower"},
	{"namespace.lca_ns", "ns", "lower"},
	{"namespace.lookup_name_ns", "ns", "lower"},
	{"bloom.test_ns", "ns", "lower"},
	{"bloom.digest_bytes", "B", "lower"},
	{"core.handle_query_ns", "ns", "lower"},
	{"core.handle_query_allocs", "count", "lower"},
	{"core.fast_query_ns", "ns", "lower"},
	{"core.publish_snapshot_us", "us", "lower"},
	{"core.snapshot_publishes_per_kop", "count", "lower"},
	{"core.publish_snapshot_allocs", "count", "lower"},
	{"core.fastpath_hit_frac", "ratio", "higher"},
	{"core.fastpath_fallback_frac", "ratio", "lower"},
	{"core.cache_hit_frac", "ratio", "higher"},
	{"core.digest_shortcut_frac", "ratio", "higher"},
	{"core.replica_installs_per_kop", "count", "lower"},
	{"core.replica_evictions_per_kop", "count", "lower"},
	{"wire.encode_query_ns", "ns", "lower"},
	{"wire.decode_query_ns", "ns", "lower"},
	{"wire.encode_result_ns", "ns", "lower"},
	{"wire.decode_result_ns", "ns", "lower"},
	{"wire.decode_allocs", "count", "lower"},
	{"wire.query_bytes_mean", "B", "lower"},
	{"wire.result_bytes_mean", "B", "lower"},
	{"wire.framereader_next_ns", "ns", "lower"},
	{"overlay.query_msgs_per_lookup", "count", "lower"},
	{"overlay.control_msgs_per_lookup", "count", "lower"},
	{"overlay.span_reports_per_lookup", "count", "lower"},
	{"overlay.tcp_send_ns", "ns", "lower"},
	{"overlay.tcp_rtt_p50_us", "us", "lower"},
	{"overlay.frames_per_read", "count", "higher"},
	{"overlay.msgs_per_flush", "count", "higher"},
	{"overlay.transport_drop_frac", "ratio", "lower"},
	{"overlay.queue_wait_p50_us", "us", "lower"},
	{"overlay.queue_wait_p99_us", "us", "lower"},
	{"overlay.service_p50_us", "us", "lower"},
	{"overlay.inbox_drop_frac", "ratio", "lower"},
	{"overlay.local_lookup_ns", "ns", "lower"},
	{"persist.write_p50_us", "us", "lower"},
	{"persist.write_p99_us", "us", "lower"},
	{"persist.restart_s", "s", "lower"},
	{"persist.restart_lost_write_frac", "ratio", "lower"},
	{"persist.wal_append_ns", "ns", "lower"},
	{"persist.wal_flush_us", "us", "lower"},
	{"persist.wal_bytes_per_record", "B", "lower"},
	{"persist.snapshot_write_ms", "ms", "lower"},
	{"persist.index_get_us", "us", "lower"},
	{"persist.cold_load_p50_us", "us", "lower"},
	{"persist.cold_load_p99_us", "us", "lower"},
	{"persist.cold_miss_frac", "ratio", "lower"},
	{"persist.evictions_per_kop", "count", "lower"},
	{"persist.replay_records_per_s", "1/s", "higher"},
	{"persist.disk_bytes_per_node", "B", "lower"},
	{"gateway.cache_hit_frac", "ratio", "higher"},
	{"gateway.coalesce_frac", "ratio", "higher"},
	{"gateway.hedge_frac", "ratio", "lower"},
	{"gateway.upstream_queries_per_lookup", "count", "lower"},
	{"gateway.overhead_mean_us", "us", "lower"},
	{"gateway.open_lat_p50_us", "us", "lower"},
	{"gateway.open_lat_p99_us", "us", "lower"},
	{"telemetry.trace_overhead_frac", "ratio", "lower"},
	{"loadgen.retried_frac", "ratio", "lower"},
	{"loadgen.lag_p50_us", "us", "lower"},
	{"loadgen.lag_p99_us", "us", "lower"},
	{"loadgen.trace_overhead_frac", "ratio", "lower"},
	{"budget.cpu_us_per_op", "us", "lower"},
	{"budget.explained_frac", "ratio", "higher"},
	{"budget.unexplained_us", "us", "lower"},
}

// tracer runs the traced pass of one workload: it switches the tap on for
// every second round, reads the registries before and after the measured
// phase, and afterwards times the layers in isolation.
type tracer struct {
	sp    spec
	b     *booted
	tap   *tapTransport
	regs  []*telemetry.Registry
	owner []core.ServerID // outlives the cluster, which is gone by layerMetrics

	before, after scraped
	tcpBefore     overlay.TransportStats
	tcpAfter      overlay.TransportStats
	diskBytes     int64
	retried       int64 // extra attempts in the measured phase
	m             map[string]metric
	errs          []error

	publishes   atomic.Uint64 // routing-snapshot publishes seen in tapped rounds
	samplerStop chan struct{}
	samplerDone chan struct{}
}

// publishPoll is how often the tracer looks at every server's published
// routing snapshot. A server publishes at most once per 500 µs, so polling
// well inside that sees nearly every publish; the count is a lower bound.
const publishPoll = 200 * time.Microsecond

// countPublishes counts, while the tap is on, how often each server replaces
// its routing snapshot. The program exports no such counter; the snapshot
// pointer is its one public trace (core.Peer.RoutingSnapshot is safe from any
// goroutine). Publishing is the largest cost the budget has to account for.
func (t *tracer) countPublishes() {
	defer close(t.samplerDone)
	nodes := t.b.sys.c.nodes
	last := make([]*core.RouteSnapshot, len(nodes))
	armed := false
	for {
		select {
		case <-t.samplerStop:
			return
		default:
		}
		if on := t.tap.on.Load(); on {
			for i, n := range nodes {
				snap := n.Peer().RoutingSnapshot()
				if armed && snap != last[i] {
					t.publishes.Add(1)
				}
				last[i] = snap
			}
			armed = true
		} else {
			armed = false
		}
		time.Sleep(publishPoll)
	}
}

func newTracer(sp spec, b *booted, tap *tapTransport) *tracer {
	t := &tracer{sp: sp, b: b, tap: tap, owner: b.sys.c.owner, m: map[string]metric{}}
	for _, n := range b.sys.c.nodes {
		t.regs = append(t.regs, n.Registry())
	}
	if gw := b.sys.c.gw; gw != nil {
		t.regs = append(t.regs, gw.Registry())
	}
	return t
}

func (t *tracer) note(err error) {
	if err != nil {
		t.errs = append(t.errs, err)
	}
}

// tcpTotals sums the peers' transport counters.
func (t *tracer) tcpTotals() overlay.TransportStats {
	var sum overlay.TransportStats
	for _, tr := range t.b.sys.c.tcp {
		s := tr.Stats()
		sum.Enqueued += s.Enqueued
		sum.Sent += s.Sent
		sum.Flushes += s.Flushes
		sum.QueueDrops += s.QueueDrops
		sum.WriteErrors += s.WriteErrors
		sum.FramesRead += s.FramesRead
		sum.ReadBatches += s.ReadBatches
	}
	return sum
}

// tapped reports whether round k runs with the tap on: every second one, so
// tapped and untapped rounds see the same system at the same age.
func tapped(k int) bool { return k%2 == 1 }

func (t *tracer) onRound(k int) {
	if k == 0 {
		t.before = scrape(t.regs)
		t.tcpBefore = t.tcpTotals()
		t.retried = -t.b.sys.retried.Load()
		t.samplerStop, t.samplerDone = make(chan struct{}), make(chan struct{})
		go t.countPublishes()
	}
	t.tap.on.Store(tapped(k))
}

// finish closes the measured phase while the system is still up.
func (t *tracer) finish() {
	t.tap.on.Store(false)
	if t.samplerStop != nil {
		close(t.samplerStop)
		<-t.samplerDone
	}
	t.after = scrape(t.regs)
	t.tcpAfter = t.tcpTotals()
	t.retried += t.b.sys.retried.Load()
	if t.sp.openRate > 0 {
		t.openLoop()
	}
	if t.sp.name == "wide-unif" {
		frac, err := t.tracingOverhead()
		t.note(err)
		t.m["telemetry.trace_overhead_frac"] = metric{Value: frac}
	}
	t.note(traceLocalLookup(t.m, t.b.sys.c))
	if t.sp.durable {
		var err error
		t.diskBytes, err = dirBytes(t.b.sys.dir)
		t.note(err)
	}
}

// openSeconds is the length of the traced pass's open-loop phase. The smoke
// test shortens it.
var openSeconds = 4.0

// latencyLimit is the open loop's stated service level: 99 % of requests
// answered within 5 ms of their scheduled time. The offered rate is the
// highest round figure that meets it on the reference host. It is also the
// line the generator itself must hold: a phase whose generator lag p99
// passes it did not offer the schedule it claims, and the run is invalid.
// (The tighter rule one would like — lag p99 within a tenth of the median
// latency — cannot hold on two CPUs; README, "Open-loop pacing".)
const latencyLimit = 5 * time.Millisecond

// openLoop offers the workload's stream at a fixed rate, untapped, and
// reports latency from each arrival's due time beside the generator's own
// lag.
func (t *tracer) openLoop() {
	sp := t.sp
	ops := t.b.st.next(int(sp.openRate * openSeconds))
	rounds := openRounds(t.b.sys, ops, sp.openRate, int(sp.openRate), t.b.st.n-len(ops))
	var p50, p99, lagP50, lagP99 []float64
	for i := range rounds {
		rd := &rounds[i]
		if rd.firstErr != nil {
			t.note(fmt.Errorf("open loop: %d of %d requests failed, first: %w", rd.failed, rd.ops, rd.firstErr))
			continue
		}
		p50 = append(p50, percentile(rd.lat, 0.50))
		p99 = append(p99, percentile(rd.lat, 0.99))
		lagP50 = append(lagP50, percentile(rd.lag, 0.50))
		lagP99 = append(lagP99, percentile(rd.lag, 0.99))
	}
	t.m["gateway.open_lat_p50_us"] = metric{Value: median(p50)}
	t.m["gateway.open_lat_p99_us"] = metric{Value: median(p99)}
	t.m["loadgen.lag_p50_us"] = metric{Value: median(lagP50)}
	t.m["loadgen.lag_p99_us"] = metric{Value: median(lagP99)}
	if lag := median(lagP99); lag > micros(latencyLimit) {
		t.note(fmt.Errorf("invalid run: open-loop generator lag p99 %.0f us exceeds the %v latency limit; the schedule was not held", lag, latencyLimit))
	}
}

// roundStats splits the rounds by tap state and returns, for each side, the
// median rate, the CPU microseconds per operation and the operation count.
func roundStats(rounds []round, on bool) (rate, cpuUs float64, ops int) {
	var rates []float64
	var cpu time.Duration
	for k := range rounds {
		if tapped(k) != on {
			continue
		}
		rd := &rounds[k]
		ops += rd.ops
		cpu += rd.end.cpu - rd.start.cpu
		rates = append(rates, float64(len(rd.lat))/rd.wall().Seconds())
	}
	return median(rates), ratio(micros(cpu), float64(ops)), ops
}

// layerMetrics assembles the per-layer metrics after the system has stopped.
func (t *tracer) layerMetrics(rounds []round, restart time.Duration, lostFrac float64) (map[string]metric, []error) {
	m, sp := t.m, t.sp
	set := func(name string, v float64) { m[name] = metric{Value: v} }
	d := delta{t.before, t.after}
	ops := 0
	for i := range rounds {
		ops += rounds[i].ops
	}
	fops := float64(ops)
	offRate, offCPU, _ := roundStats(rounds, false)
	onRate, _, onOps := roundStats(rounds, true)

	traceNamespace(m, t.b.tree)
	resident := 0
	if sp.durable {
		resident = t.b.tree.Len() / sp.servers / hotCacheShare
	}
	t.note(traceCoreAndBloom(m, t.b.tree, t.owner, sp.servers, resident))

	// core, from the registries.
	fastServed := d.count("terradir_fastpath_resolved_total") + d.count("terradir_fastpath_forwarded_total") + d.count("terradir_fastpath_failed_total")
	fallbacks := d.count("terradir_fastpath_fallbacks_total")
	set("core.fastpath_hit_frac", ratio(fastServed, fastServed+fallbacks))
	set("core.fastpath_fallback_frac", ratio(fallbacks, fastServed+fallbacks))
	set("core.cache_hit_frac", ratio(d.count("terradir_cache_hits_total"), d.count("terradir_cache_hits_total")+d.count("terradir_cache_misses_total")))
	set("core.digest_shortcut_frac", ratio(d.count("terradir_digest_shortcuts_total"), d.count("terradir_queries_forwarded_total")))
	set("core.replica_installs_per_kop", ratio(d.count("terradir_replica_installs_total"), fops)*1000)
	set("core.replica_evictions_per_kop", ratio(d.count("terradir_replica_evictions_total"), fops)*1000)

	fon := float64(onOps)
	set("core.snapshot_publishes_per_kop", ratio(float64(t.publishes.Load()), fon)*1000)

	// overlay: message counts from the tap, queues from the registries.
	set("overlay.query_msgs_per_lookup", ratio(float64(t.tap.queries.Load()), fon))
	set("overlay.control_msgs_per_lookup", ratio(float64(t.tap.results.Load()+t.tap.control.Load()), fon))
	set("overlay.span_reports_per_lookup", ratio(float64(t.tap.spans.Load()), fon))
	set("overlay.queue_wait_p50_us", d.quantile("terradir_queue_wait_seconds", 0.50)*1e6)
	set("overlay.queue_wait_p99_us", d.quantile("terradir_queue_wait_seconds", 0.99)*1e6)
	set("overlay.service_p50_us", d.quantile("terradir_service_seconds", 0.50)*1e6)
	set("overlay.inbox_drop_frac", ratio(d.count("terradir_inbox_query_drops_total"), fops))

	if sp.gateway {
		sends := float64(t.tap.queries.Load() + t.tap.results.Load() + t.tap.spans.Load() + t.tap.control.Load())
		set("overlay.tcp_send_ns", ratio(float64(t.tap.sendNanos.Load()), sends))
		tb, ta := t.tcpBefore, t.tcpAfter
		set("overlay.frames_per_read", ratio(float64(ta.FramesRead-tb.FramesRead), float64(ta.ReadBatches-tb.ReadBatches)))
		set("overlay.msgs_per_flush", ratio(float64(ta.Sent-tb.Sent), float64(ta.Flushes-tb.Flushes)))
		set("overlay.transport_drop_frac", ratio(float64(ta.QueueDrops-tb.QueueDrops+ta.WriteErrors-tb.WriteErrors), float64(ta.Enqueued-tb.Enqueued)))
		t.note(traceTCPEcho(m))
		t.tap.mu.Lock()
		samples := t.tap.samples
		t.tap.mu.Unlock()
		t.note(traceWire(m, samples))

		flights := d.count("terradir_gw_flights_total")
		set("gateway.cache_hit_frac", ratio(d.count("terradir_gw_cache_hits_total"), d.count("terradir_gw_cache_hits_total")+d.count("terradir_gw_cache_misses_total")))
		set("gateway.coalesce_frac", ratio(d.count("terradir_gw_coalesce_hits_total"), fops))
		set("gateway.hedge_frac", ratio(d.count("terradir_gw_hedge_fired_total"), flights))
		set("gateway.upstream_queries_per_lookup", ratio(d.count("terradir_gw_upstream_queries_total"), fops))
		// Means, not medians: the gateway adds less than one bucket of the
		// histograms' 16-per-decade resolution, so their medians coincide.
		set("gateway.overhead_mean_us", (d.mean("terradir_gw_latency_seconds")-d.mean("terradir_gw_upstream_latency_seconds"))*1e6)
	}

	if sp.durable {
		var wp50, wp99 []float64
		for i := range rounds {
			if w := rounds[i].writeLat; len(w) > 0 {
				wp50 = append(wp50, percentile(w, 0.50))
				wp99 = append(wp99, percentile(w, 0.99))
			}
		}
		set("persist.write_p50_us", median(wp50))
		set("persist.write_p99_us", median(wp99))
		set("persist.restart_s", restart.Seconds())
		set("persist.restart_lost_write_frac", lostFrac)
		set("persist.wal_bytes_per_record", ratio(d.count("terradir_persist_wal_bytes_total"), d.count("terradir_persist_wal_appends_total")))
		set("persist.snapshot_write_ms", d.mean("terradir_persist_snapshot_duration_seconds")*1e3)
		set("persist.cold_load_p50_us", d.quantile("terradir_persist_index_load_seconds", 0.50)*1e6)
		set("persist.cold_load_p99_us", d.quantile("terradir_persist_index_load_seconds", 0.99)*1e6)
		set("persist.cold_miss_frac", ratio(d.count("terradir_persist_index_misses_total"), fops))
		set("persist.evictions_per_kop", ratio(d.count("terradir_persist_index_evictions_total"), fops)*1000)
		set("persist.disk_bytes_per_node", ratio(float64(t.diskBytes), float64(t.b.tree.Len())))
		t.note(tracePersist(m, t.b.tree.Len()/sp.servers))
	}

	// loadgen: second attempts, and what the tap costs in throughput.
	set("loadgen.retried_frac", ratio(float64(t.retried), fops))
	set("loadgen.trace_overhead_frac", ratio(offRate-onRate, offRate))

	t.budget(offCPU)
	out := make(map[string]metric, len(layerDecl))
	for _, l := range layerDecl {
		out[l.name] = metric{Value: m[l.name].Value, Unit: l.unit}
	}
	return out, t.errs
}

// overheadRounds is how many rounds each side of the tracing comparison runs.
const overheadRounds = 6

// tracingOverhead prices distributed tracing: it boots a second cluster that
// traces no lookup (TraceSample < 0) beside the measured one and runs rounds
// on the two in turn, so both sides see the same process at the same age.
// (A cluster booted after the first has stopped runs a fifth slower than the
// first did, in the heap the first left behind.) It returns the share of the
// untraced cluster's throughput that tracing costs.
func (t *tracer) tracingOverhead() (float64, error) {
	sp := t.sp
	sp.noTrace = true
	quiet, err := setUp(sp, uint64(t.b.st.n), nil)
	if err != nil {
		return 0, err
	}
	defer quiet.tearDown()
	var traced, untraced []float64
	for k := 0; k < overheadRounds; k++ {
		for _, side := range []struct {
			b    *booted
			into *[]float64
		}{{t.b, &traced}, {quiet, &untraced}} {
			rd := closedRound(side.b.sys, side.b.st.next(sp.roundOps), clients(), side.b.st.n)
			if rd.firstErr != nil {
				return 0, fmt.Errorf("tracing comparison: %w", rd.firstErr)
			}
			*side.into = append(*side.into, float64(len(rd.lat))/rd.wall().Seconds())
		}
	}
	return ratio(median(untraced)-median(traced), median(untraced)), nil
}

// budget sets what the isolated layer costs, multiplied by how often the
// traced rounds saw each happen per operation, explain of the CPU time an
// operation really took (untapped rounds). Only costs the benchmark can both
// time and count from outside the program are in it; what it cannot —
// control-message handling, timers, scheduling and garbage collection — is
// the remainder, printed rather than guessed.
func (t *tracer) budget(cpuUsPerOp float64) {
	m := t.m
	v := func(name string) float64 { return m[name].Value }
	// Every lookup is handled once where it starts and once per query message.
	handlings := 1 + v("overlay.query_msgs_per_lookup")
	fast := v("core.fastpath_hit_frac")
	explained := handlings * (fast*v("core.fast_query_ns") + (1-fast)*v("core.handle_query_ns")) / 1e3
	// The client call around the first handling.
	explained += max(v("overlay.local_lookup_ns")-v("core.fast_query_ns"), 0) / 1e3
	explained += v("core.snapshot_publishes_per_kop") / 1000 * v("core.publish_snapshot_us")
	if t.sp.gateway {
		msgs := v("gateway.upstream_queries_per_lookup") + v("overlay.query_msgs_per_lookup") + v("overlay.control_msgs_per_lookup") + v("overlay.span_reports_per_lookup")
		codec := (v("wire.encode_query_ns") + v("wire.decode_query_ns") + v("wire.encode_result_ns") + v("wire.decode_result_ns")) / 2
		explained += msgs * (codec + v("wire.framereader_next_ns") + v("overlay.tcp_send_ns")) / 1e3
	}
	if t.sp.durable {
		explained += writeFrac * v("persist.wal_append_ns") / 1e3
	}
	m["budget.cpu_us_per_op"] = metric{Value: cpuUsPerOp}
	m["budget.explained_frac"] = metric{Value: ratio(explained, cpuUsPerOp)}
	m["budget.unexplained_us"] = metric{Value: cpuUsPerOp - explained}
}
