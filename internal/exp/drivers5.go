package exp

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/rng"
)

func init() {
	register("a3live", "Extension: A3 on the live overlay — lookup completion with peers killed mid-run", LiveFailureResilience)
}

// liveA3Params sizes the live run. The live overlay burns wall-clock time
// (goroutines, real timers), so the driver runs far smaller than the
// simulator's A3 while keeping the same shape: warm with Zipf traffic so
// soft state (caches, replicas) forms, fail a fraction of peers abruptly,
// then measure client-visible lookup completion from the survivors.
type liveA3Params struct {
	servers     int
	warmPer     int           // warm lookups issued by each server
	measurePer  int           // measured lookups issued by each survivor
	alpha       float64       // Zipf skew of the query stream
	serviceCost time.Duration // capacity one query uses (a hot owner crosses Thigh)
}

// lookupBound is each A3-live lookup's own deadline, two attempts of the
// library's schedule: the 600 ms the driver's own three 200 ms attempts took.
// Longer bounds completed the same lookups and took longer (EXPERIMENTS.md).
const lookupBound = 600 * time.Millisecond

// LiveFailureResilience is A3 run against the real concurrent overlay
// instead of the simulator: a LocalCluster with a FaultTransport, a Zipf
// warm phase, then 5–30% of the peers fail-stopped mid-run (event loops
// halted, all their traffic dropped). Completion is what a client sees: a
// lookup from a surviving peer that returns OK within lookupBound (a
// re-attempt re-Picks hosts at every hop, so partial replica liveness
// converts into success, while a dead sole owner stays unreachable). Mirrors the
// simulator A3 table (internal/exp/drivers4.go); note the live run operates
// at low utilization, so A3's load-shedding component of the replication
// benefit (fewer queue drops on survivors) is largely absent here.
func LiveFailureResilience(env Env) *Result {
	p := liveA3Params{
		servers:     env.Servers(),
		warmPer:     120,
		measurePer:  40,
		alpha:       1.2,
		serviceCost: time.Millisecond,
	}
	if p.servers > 24 {
		p.servers = 24 // live peers are goroutine clusters, not sim rows
	}
	levels := 1
	for namespace.BalancedBinaryNodes(levels) < 8*p.servers && levels < 12 {
		levels++
	}
	tree := namespace.NewBalanced(2, levels)

	r := &Result{
		ID:    "a3live",
		Title: "Live overlay: lookup completion before/after killing a fraction of peers",
		Header: []string{"failedFraction", "replication", "completedBefore", "completedAfter",
			"afterCompletionRate", "recreatedReplicas", "reattempts"},
	}
	r.Notef("servers=%d nodes=%d zipfAlpha=%.2f warm=%d/server measure=%d/server lookupBound=%s",
		p.servers, tree.Len(), p.alpha, p.warmPer, p.measurePer, lookupBound)
	r.Notef("completion = OK within lookupBound, measured from surviving peers only; reattempts = the survivors' terradir_lookup_reattempts_total over the measured phase")

	for _, frac := range []float64{0.05, 0.10, 0.30} {
		for _, repl := range []bool{true, false} {
			row := runLiveA3(env, tree, p, frac, repl)
			mode := "off"
			if repl {
				mode = "on"
			}
			r.AddRow(frac, mode, row.before, row.after, row.rate, row.recreated, row.reattempts)
		}
	}
	return r
}

type liveA3Row struct {
	before, after         int64
	rate                  float64
	recreated, reattempts int64
}

func runLiveA3(env Env, tree *namespace.Tree, p liveA3Params, frac float64, repl bool) liveA3Row {
	cfg := core.DefaultConfig()
	cfg.ReplicationEnabled = repl
	cfg.ReplicationCooldown = 0.05
	c, err := overlay.NewLocalCluster(tree, overlay.LocalClusterOptions{
		Servers: p.servers,
		Seed:    env.Seed,
		Fault:   &overlay.FaultOptions{Seed: env.Seed + 1},
		Node: overlay.Options{
			Config:      cfg,
			ServiceCost: p.serviceCost,
			QueueCap:    1024,
		},
	})
	if err != nil {
		panic(err)
	}
	defer c.StopAll()

	// One shared Zipf stream fixes the popularity ranking and pre-draws every
	// destination, so the sequences are deterministic regardless of goroutine
	// interleaving.
	zipf := rng.NewZipf(rng.New(env.Seed+101), tree.Len(), p.alpha)
	draw := func(per int) [][]core.NodeID {
		out := make([][]core.NodeID, p.servers)
		for s := range out {
			out[s] = make([]core.NodeID, per)
			for i := range out[s] {
				out[s][i] = core.NodeID(zipf.Sample())
			}
		}
		return out
	}
	warmDests, afterDests := draw(p.warmPer), draw(p.measurePer)

	all := make([]int, p.servers)
	for i := range all {
		all[i] = i
	}
	// Warm: soft state forms — caches along every query path, replicas of the
	// hot nodes once owners cross Thigh.
	before, _ := driveLiveLookups(c, all, warmDests)
	time.Sleep(150 * time.Millisecond) // let in-flight replication sessions land

	// Abrupt fail-stop of a deterministic random subset, as in A3.
	nFail := int(frac*float64(p.servers) + 0.5)
	if nFail < 1 {
		nFail = 1
	}
	perm := make([]int, p.servers)
	rng.New(env.Seed + 202).Perm(perm)
	deadSet := make(map[int]bool, nFail)
	for i := 0; i < nFail; i++ {
		deadSet[perm[i]] = true
	}
	var survivors []int
	var atFail core.Stats // the survivors' installs and re-attempts, summed
	for i := 0; i < p.servers; i++ {
		if deadSet[i] {
			continue
		}
		survivors = append(survivors, i)
		s := c.Node(i).Snapshot().Stats
		atFail.ReplicaInstalls += s.ReplicaInstalls
		atFail.LookupReattempts += s.LookupReattempts
	}
	for i := range deadSet {
		c.KillServer(i)
	}

	// Measure from the survivors only (clients of a dead peer are a client-
	// side availability problem, not a routing one).
	liveDests := make([][]core.NodeID, len(survivors))
	for i, s := range survivors {
		liveDests[i] = afterDests[s]
	}
	after, total := driveLiveLookups(c, survivors, liveDests)
	time.Sleep(100 * time.Millisecond)
	c.StopAll() // quiesce so peer state can be read race-free

	row := liveA3Row{before: before, after: after,
		recreated: -atFail.ReplicaInstalls, reattempts: -atFail.LookupReattempts}
	for _, s := range survivors {
		st := c.Node(s).Peer().StatsView()
		row.recreated += st.ReplicaInstalls
		row.reattempts += st.LookupReattempts
	}
	if total > 0 {
		row.rate = float64(after) / float64(total)
	}
	return row
}

// driveLiveLookups issues each source's destination sequence concurrently
// (one goroutine per source, sequential within a source) and counts lookups
// that return OK on the library's attempt schedule within lookupBound.
func driveLiveLookups(c *overlay.LocalCluster, sources []int, dests [][]core.NodeID) (ok, total int64) {
	var okCtr, totalCtr atomic.Int64
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(src int, seq []core.NodeID) {
			defer wg.Done()
			for _, dest := range seq {
				totalCtr.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), lookupBound)
				res, err := c.Lookup(ctx, src, dest)
				cancel()
				if err == nil && res.OK {
					okCtr.Add(1)
				}
			}
		}(src, dests[i])
	}
	wg.Wait()
	return okCtr.Load(), totalCtr.Load()
}
