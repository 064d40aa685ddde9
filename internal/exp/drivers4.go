package exp

import (
	"terradir/internal/cluster"
	"terradir/internal/core"
	"terradir/internal/rng"
	"terradir/internal/stats"
	"terradir/internal/workload"
)

func init() {
	register("a3", "Extension: routing resiliency under server failures (paper §1, §3.1)", FailureResilience)
	register("a4", "Extension: static top-level replication vs adaptive protocol (paper §2.3)", StaticVsAdaptive)
}

// FailureResilience exercises the paper's fault-tolerance goal (§1: "improve
// ... reliability"; §3.1: hosts of nodes with failed replicas incur more
// load and replicate again): after a warm period, a fraction of servers
// fails abruptly; lookups must keep completing by routing around the dead
// hosts via surviving replicas, caches and digests, and the replication
// protocol must restore coverage.
func FailureResilience(env Env) *Result {
	tree := env.NsTree()
	rate := env.Lambda(8000)
	warm := env.Duration(60)
	after := env.Duration(60)
	r := &Result{
		ID:    "a3",
		Title: "Lookup completion before/after failing a fraction of servers",
		Header: []string{"failedFraction", "replication", "completedBefore", "completedAfter",
			"afterCompletionRate", "recreatedReplicas"},
	}
	r.Notef("servers=%d nodes=%d lambda=%.0f warm=%.0fs after=%.0fs",
		env.Servers(), tree.Len(), rate, warm, after)
	for _, frac := range []float64{0.05, 0.15, 0.30} {
		for _, repl := range []bool{true, false} {
			p := env.Params(tree)
			p.Core.ReplicationEnabled = repl
			c, err := cluster.New(p)
			if err != nil {
				panic(err)
			}
			w := workload.UZipf(tree.Len(), rng.New(env.Seed+101), 1.0, rate, warm+after)
			c.Run(w, warm)
			completedBefore := c.Metrics.Completed
			injectedBefore := c.Metrics.Injected.Total()
			// Fail a deterministic random subset of servers.
			fsrc := rng.New(env.Seed + 202)
			nFail := int(frac * float64(env.Servers()))
			perm := make([]int, env.Servers())
			fsrc.Perm(perm)
			for i := 0; i < nFail; i++ {
				c.FailServer(core.ServerID(perm[i]))
			}
			creationsAtFail := c.Metrics.TotalCreations()
			c.Run(w, after)
			c.Drain(10)
			completedAfter := c.Metrics.Completed - completedBefore
			injectedAfter := c.Metrics.Injected.Total() - injectedBefore
			rate2 := 0.0
			if injectedAfter > 0 {
				rate2 = float64(completedAfter) / injectedAfter
			}
			mode := "off"
			if repl {
				mode = "on"
			}
			r.AddRow(frac, mode, completedBefore, completedAfter, rate2,
				c.Metrics.TotalCreations()-creationsAtFail)
		}
	}
	return r
}

// StaticVsAdaptive compares §2.3's static alternative (pre-replicating the
// top namespace levels) against the adaptive protocol, alone and combined,
// under uniform traffic (the hierarchical-bottleneck regime static
// replication targets) and under a shifting hot-spot it cannot anticipate.
func StaticVsAdaptive(env Env) *Result {
	tree := env.NsTree()
	dur := env.Duration(120)
	rate := env.Lambda(10000)
	r := &Result{
		ID:    "a4",
		Title: "Static top-level replication vs adaptive replication",
		Header: []string{"stream", "system", "dropFraction", "meanHops",
			"loadGini", "replicasCreated"},
	}
	r.Notef("servers=%d nodes=%d lambda=%.0f duration=%.0fs staticLevels=4 staticFactor=8",
		env.Servers(), tree.Len(), rate, dur)
	systems := []struct {
		name string
		mut  func(*cluster.Params)
	}{
		{"none", func(p *cluster.Params) { p.Core.ReplicationEnabled = false }},
		{"static", func(p *cluster.Params) {
			p.Core.ReplicationEnabled = false
			p.Static = cluster.StaticReplication{Levels: 4, Factor: 8}
		}},
		{"adaptive", nil},
		{"static+adaptive", func(p *cluster.Params) {
			p.Static = cluster.StaticReplication{Levels: 4, Factor: 8}
		}},
	}
	for si, stream := range []string{"unif", "uzipf1.50x4"} {
		for _, sys := range systems {
			var w *workload.Workload
			if stream == "unif" {
				w = workload.Unif(tree.Len(), rng.New(env.Seed+111+uint64(si)), rate, dur)
			} else {
				w = shiftStream(tree, env.Seed+111+uint64(si), 1.5, rate, dur, 0.2, 4)
			}
			c := run(env, tree, w, dur, sys.mut)
			// Load balance over the run: Gini of per-server processed work.
			work := make([]float64, c.Servers())
			for i := range work {
				work[i] = float64(c.Peer(i).StatsView().Processed)
			}
			r.AddRow(stream, sys.name, c.Metrics.DropFraction(), c.Metrics.Hops.Mean(),
				stats.Gini(work), c.Metrics.TotalCreations())
		}
	}
	return r
}
