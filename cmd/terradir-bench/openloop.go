package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/gateway"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/rng"
	"terradir/internal/workload"
)

// openLoopConfig parameterizes one fixed-arrival-rate run.
type openLoopConfig struct {
	Target   string  // "direct" (in-process LocalCluster) or "gw" (TCP peers behind a gateway)
	Dist     string  // "unif" or "zipf"
	Alpha    float64 // Zipf exponent (ignored for unif)
	Servers  int
	Shards   int
	Rate     float64 // offered lookups/sec across the whole cluster
	Duration time.Duration
	Clients  int // worker goroutines sharing the arrival schedule
	Seed     uint64
}

// openLoopResult is the machine-readable outcome of one open-loop run.
type openLoopResult struct {
	Target       string  `json:"target"`
	Dist         string  `json:"dist"`
	Alpha        float64 `json:"alpha,omitempty"`
	Servers      int     `json:"servers"`
	Shards       int     `json:"shards"`
	OfferedRate  float64 `json:"offered_rate_lps"`
	AchievedRate float64 `json:"achieved_rate_lps"`
	Arrivals     int     `json:"arrivals"`
	Failures     int     `json:"failures"`
	Coalesced    float64 `json:"gw_coalesce_hits,omitempty"`
	Hedged       float64 `json:"gw_hedges_fired,omitempty"`
	// FramesPerRead is the mean frames decoded per read(2) across the peer
	// transports (terradir_transport_frames_per_read); >1 means the batched
	// receive path is amortizing syscalls. Only meaningful for -target gw —
	// the direct target has no sockets.
	FramesPerRead float64 `json:"frames_per_read,omitempty"`
	P50Micros     float64 `json:"p50_us"`
	P90Micros     float64 `json:"p90_us"`
	P99Micros     float64 `json:"p99_us"`
	P999Micros    float64 `json:"p999_us"`
	MaxMicros     float64 `json:"max_us"`
	PeakHeapMB    float64 `json:"peak_heap_mb"`
	PeakRSSMB     float64 `json:"peak_rss_mb,omitempty"`
}

// memSampler tracks the process's peak live heap over a run by polling
// runtime.ReadMemStats, and reads the kernel's resident high-water mark
// (VmHWM) at stop. Capacity-planning numbers for larger-than-RAM hosting:
// the hot-cache caps only matter if the figure they bound is visible.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		var ms runtime.MemStats
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > m.peak {
				m.peak = ms.HeapAlloc
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns (peak heap MB, peak RSS MB). RSS is 0
// on platforms without /proc/self/status.
func (m *memSampler) finish() (heapMB, rssMB float64) {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20), readVmHWMKB() / 1024
}

// readVmHWMKB returns the process's peak resident set in KiB per
// /proc/self/status, or 0 when unavailable.
func readVmHWMKB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

// genDests pre-generates the destination stream from the shared
// internal/workload generator (the same Zipf/uniform machinery the paper
// experiments use — one source of truth for popularity laws). Workload is
// stateful and single-threaded, so destinations are drawn up front and the
// load workers index into the array.
func genDests(cfg openLoopConfig, n, total int, interval time.Duration) ([]core.NodeID, error) {
	var w *workload.Workload
	src := rng.New(cfg.Seed + 7)
	switch cfg.Dist {
	case "", "unif":
		w = workload.Unif(n, src, cfg.Rate, cfg.Duration.Seconds())
	case "zipf":
		w = workload.UZipf(n, src, cfg.Alpha, cfg.Rate, cfg.Duration.Seconds())
	default:
		return nil, fmt.Errorf("unknown -dist %q (want unif or zipf)", cfg.Dist)
	}
	dests := make([]core.NodeID, total)
	for i := range dests {
		dests[i] = core.NodeID(w.Dest(float64(i) * interval.Seconds()))
	}
	return dests, nil
}

// runOpenLoop drives the target at a fixed arrival rate and measures each
// lookup's latency from its SCHEDULED start, not its actual issue time — the
// coordinated-omission-safe convention. A closed loop (issue, wait, repeat)
// lets a slow server throttle its own load generator, hiding queueing delay
// exactly when the system saturates; here late lookups charge their full
// schedule slip to the percentiles instead.
func runOpenLoop(cfg openLoopConfig) (openLoopResult, error) {
	tree := namespace.NewBalanced(2, 8)
	total := int(cfg.Rate * cfg.Duration.Seconds())
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	dests, err := genDests(cfg, tree.Len(), total, interval)
	if err != nil {
		return openLoopResult{}, err
	}

	// lookup resolves arrival i; warm primes steady-state routing caches.
	var lookup func(ctx context.Context, i int, dest core.NodeID) error
	var teardown func()
	var gwStats func(r *openLoopResult)
	switch cfg.Target {
	case "", "direct":
		c, err := newDirectTarget(tree, cfg)
		if err != nil {
			return openLoopResult{}, err
		}
		teardown = c.StopAll
		lookup = func(ctx context.Context, i int, dest core.NodeID) error {
			res, err := c.Lookup(ctx, i%cfg.Servers, dest)
			if err != nil {
				return err
			}
			if !res.OK {
				return fmt.Errorf("lookup failed: %s", res.Reason)
			}
			return nil
		}
	case "gw":
		gw, framesPerRead, stop, err := newGatewayTarget(tree, cfg)
		if err != nil {
			return openLoopResult{}, err
		}
		teardown = stop
		lookup = func(ctx context.Context, _ int, dest core.NodeID) error {
			res, err := gw.Lookup(ctx, dest)
			if err != nil {
				return err
			}
			if !res.OK {
				return fmt.Errorf("lookup failed: %s", res.Reason)
			}
			return nil
		}
		gwStats = func(r *openLoopResult) {
			snap := gw.Registry().Snapshot()
			r.Coalesced = snap["terradir_gw_coalesce_hits_total"]
			r.Hedged = snap["terradir_gw_hedge_fired_total"]
			r.FramesPerRead = framesPerRead()
		}
	default:
		return openLoopResult{}, fmt.Errorf("unknown -target %q (want direct or gw)", cfg.Target)
	}
	defer teardown()

	ctx := context.Background()
	n := tree.Len()
	// Warm path-propagation caches so the run measures steady-state routing.
	for i := 0; i < 2*n; i++ {
		if err := lookup(ctx, i, core.NodeID((i*7919+3)%n)); err != nil {
			return openLoopResult{}, err
		}
	}

	latencies := make([]time.Duration, total)
	var failures atomic.Int64

	mem := startMemSampler()
	start := time.Now().Add(50 * time.Millisecond) // let workers reach their first sleep
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stride partitioning: worker w owns arrivals w, w+C, w+2C, ...
			// so the aggregate schedule is the fixed-rate arrival process and
			// no worker ever waits on another's lookup.
			for i := w; i < total; i += cfg.Clients {
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if err := lookup(ctx, i, dests[i]); err != nil {
					failures.Add(1)
				}
				latencies[i] = time.Since(due)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	peakHeapMB, peakRSSMB := mem.finish()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(total-1))
		return float64(latencies[idx]) / float64(time.Microsecond)
	}
	dist := cfg.Dist
	if dist == "" {
		dist = "unif"
	}
	target := cfg.Target
	if target == "" {
		target = "direct"
	}
	r := openLoopResult{
		Target:       target,
		Dist:         dist,
		Alpha:        cfg.Alpha,
		Servers:      cfg.Servers,
		Shards:       cfg.Shards,
		OfferedRate:  cfg.Rate,
		AchievedRate: float64(total) / elapsed.Seconds(),
		Arrivals:     total,
		Failures:     int(failures.Load()),
		P50Micros:    pct(0.50),
		P90Micros:    pct(0.90),
		P99Micros:    pct(0.99),
		P999Micros:   pct(0.999),
		MaxMicros:    float64(latencies[total-1]) / float64(time.Microsecond),
		PeakHeapMB:   peakHeapMB,
		PeakRSSMB:    peakRSSMB,
	}
	if dist == "unif" {
		r.Alpha = 0
	}
	if gwStats != nil {
		gwStats(&r)
	}
	return r, nil
}

// newDirectTarget boots the in-process LocalCluster (function-call
// transport, no sockets).
func newDirectTarget(tree *namespace.Tree, cfg openLoopConfig) (*overlay.LocalCluster, error) {
	opts := overlay.LocalClusterOptions{Servers: cfg.Servers, Seed: cfg.Seed}
	opts.Node.Shards = cfg.Shards
	return overlay.NewLocalCluster(tree, opts)
}

// newGatewayTarget boots cfg.Servers real TCP peers on loopback and one
// gateway in front of them; lookups traverse two TCP hops (client→gateway is
// in-process here, gateway→peer and the peer overlay are real sockets). The
// second return value reports the mean frames decoded per read(2) across the
// peer transports so far.
func newGatewayTarget(tree *namespace.Tree, cfg openLoopConfig) (*gateway.Gateway, func() float64, func(), error) {
	owner := overlay.Assign(tree, cfg.Servers, cfg.Seed)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, cfg.Servers)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	trs := make([]*overlay.TCPTransport, cfg.Servers)
	nodes := make([]*overlay.Node, cfg.Servers)
	addrs := map[core.ServerID]string{}
	var peers []core.ServerID
	stop := func() {
		for i := range nodes {
			if nodes[i] != nil {
				nodes[i].Stop()
			}
			if trs[i] != nil {
				trs[i].Close()
			}
		}
	}
	for i := 0; i < cfg.Servers; i++ {
		tr, err := overlay.NewTCPTransportOpts(core.ServerID(i), "127.0.0.1:0",
			map[core.ServerID]string{}, overlay.TCPTransportOptions{Seed: cfg.Seed + uint64(i)})
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		trs[i] = tr
		addrs[core.ServerID(i)] = tr.Addr()
		peers = append(peers, core.ServerID(i))
	}
	for i := 0; i < cfg.Servers; i++ {
		for j := 0; j < cfg.Servers; j++ {
			trs[i].SetAddr(core.ServerID(j), addrs[core.ServerID(j)])
		}
		nd, err := overlay.NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf,
			overlay.Options{Seed: cfg.Seed + uint64(i), Shards: cfg.Shards})
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		nodes[i] = nd
		overlay.StartTCPNode(nd, trs[i])
	}
	gwTr, err := overlay.NewTCPTransportOpts(core.ClientID(0), "127.0.0.1:0", addrs,
		overlay.TCPTransportOptions{ClientRole: true, Seed: cfg.Seed + 1000})
	if err != nil {
		stop()
		return nil, nil, nil, err
	}
	probeDest := make(map[core.ServerID]core.NodeID, cfg.Servers)
	for nd, s := range owner {
		if _, ok := probeDest[s]; !ok {
			probeDest[s] = core.NodeID(nd)
		}
	}
	gw, err := gateway.New(gateway.Options{
		Tree:  tree,
		Self:  core.ClientID(0),
		Peers: peers,
		Wire:  gwTr,
		ProbeDest: func(s core.ServerID) core.NodeID {
			if nd, ok := probeDest[s]; ok {
				return nd
			}
			return tree.Root()
		},
	})
	if err != nil {
		gwTr.Close()
		stop()
		return nil, nil, nil, err
	}
	framesPerRead := func() float64 {
		var sum, count float64
		for _, nd := range nodes {
			if nd == nil {
				continue
			}
			for k, v := range nd.Registry().Snapshot() {
				if strings.HasPrefix(k, "terradir_transport_frames_per_read_sum") {
					sum += v
				} else if strings.HasPrefix(k, "terradir_transport_frames_per_read_count") {
					count += v
				}
			}
		}
		if count == 0 {
			return 0
		}
		return sum / count
	}
	return gw, framesPerRead, func() {
		gw.Close()
		gwTr.Close()
		stop()
	}, nil
}

// openLoopMain is the -openloop entry point: run the configured sweep and
// print one JSON object per line (shard count × rate).
func openLoopMain(target, dist string, alpha float64, servers, clients int, shardList []int, rates []float64, dur time.Duration, seed uint64) {
	enc := json.NewEncoder(os.Stdout)
	for _, shards := range shardList {
		for _, rate := range rates {
			cfg := openLoopConfig{
				Target:   target,
				Dist:     dist,
				Alpha:    alpha,
				Servers:  servers,
				Shards:   shards,
				Rate:     rate,
				Duration: dur,
				Clients:  clients,
				Seed:     seed,
			}
			r, err := runOpenLoop(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "terradir-bench: openloop target=%s shards=%d rate=%g: %v\n", target, shards, rate, err)
				os.Exit(1)
			}
			enc.Encode(r)
		}
	}
}
