// Command terradir-sim runs one ad-hoc TerraDir simulation with full
// parameter control and prints a summary plus optional per-second series.
//
// Example — the paper's adaptation scenario:
//
//	terradir-sim -servers 1000 -namespace ns -rate 20000 -alpha 1.0 \
//	             -warmup 60 -duration 250 -shifts 4 -series
package main

import (
	"flag"
	"fmt"
	"os"

	"terradir"
	"terradir/internal/namespace"
	"terradir/internal/rng"
	"terradir/internal/workload"
)

func main() {
	var (
		servers  = flag.Int("servers", 1000, "number of servers")
		nsKind   = flag.String("namespace", "ns", "namespace: 'ns' (balanced binary), 'nc' (file-system), 'balanced:<arity>:<levels>' or 'fs:<nodes>'")
		nodes    = flag.Int("nodes", 0, "node count for -namespace nc (default 70000)")
		rate     = flag.Float64("rate", 20000, "global query arrival rate (queries/s)")
		alpha    = flag.Float64("alpha", -1, "Zipf exponent; negative = uniform destinations")
		warmup   = flag.Float64("warmup", 0, "uniform warmup seconds before the Zipf phase")
		duration = flag.Float64("duration", 250, "run length in simulated seconds")
		shifts   = flag.Int("shifts", 1, "number of Zipf popularity segments (hot-spot shifts)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		frepl    = flag.Float64("frepl", 2, "replication factor Frepl")
		thigh    = flag.Float64("thigh", 0.75, "high-water load threshold")
		noRepl   = flag.Bool("no-replication", false, "disable adaptive replication")
		noCache  = flag.Bool("no-caching", false, "disable caching")
		noDigest = flag.Bool("no-digests", false, "disable inverse-mapping digests")
		series   = flag.Bool("series", false, "print per-second drop/creation/load series")
		record   = flag.String("record", "", "record the generated query stream to this trace file instead of inventing it twice")
		replay   = flag.String("replay", "", "replay a recorded trace file (overrides -rate/-alpha/-warmup/-shifts)")
	)
	flag.Parse()

	spec := *nsKind
	switch spec {
	case "ns":
		spec = "balanced:2:15"
	case "nc":
		spec = fmt.Sprintf("fs:%d", *nodes)
	}
	tree, err := namespace.ParseSpec(spec, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "terradir-sim: -namespace: %v\n", err)
		os.Exit(2)
	}

	p := terradir.DefaultSimParams(tree, *servers)
	p.Seed = *seed
	p.Core.ReplFactor = *frepl
	p.Core.Thigh = *thigh
	p.Core.ReplicationEnabled = !*noRepl
	p.Core.CachingEnabled = !*noCache
	p.Core.DigestsEnabled = !*noDigest
	sim, err := terradir.NewSimulation(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "terradir-sim: %v\n", err)
		os.Exit(1)
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "terradir-sim: %v\n", err)
			os.Exit(1)
		}
		tr, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "terradir-sim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("namespace=%s nodes=%d servers=%d replaying %d trace events over %.0fs\n",
			*nsKind, tree.Len(), *servers, len(tr.Events), tr.Duration())
		sim.RunTrace(tr, 5)
		sim.Drain(30)
	} else {
		var w *terradir.Workload
		switch {
		case *alpha < 0:
			w = terradir.UniformWorkload(tree, *seed+1, *rate, *duration)
		case *warmup > 0:
			w = terradir.ShiftingHotspotWorkload(tree, *seed+1, *alpha, *rate, *warmup, *duration, *shifts)
		default:
			w = terradir.ZipfWorkload(tree, *seed+1, *alpha, *rate, *duration)
		}
		if *record != "" {
			tr := workload.RecordTrace(w, rng.New(*seed+2), *duration)
			f, err := os.Create(*record)
			if err == nil {
				err = workload.WriteTrace(f, tr)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "terradir-sim: record: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("recorded %d events to %s; replaying them now\n", len(tr.Events), *record)
			sim.RunTrace(tr, 5)
			sim.Drain(30)
			printSummary(sim, tree)
			return
		}
		fmt.Printf("namespace=%s nodes=%d servers=%d rate=%.0f stream=%s duration=%.0fs\n",
			*nsKind, tree.Len(), *servers, *rate, w.Name, *duration)
		sim.Run(w, *duration)
		sim.Drain(30)
	}

	printSummary(sim, tree)

	if *series {
		m := sim.Metrics
		fmt.Printf("\nt\tdrops\tcreations\tloadavg\tloadmax\n")
		for t := 0; t < int(*duration); t++ {
			la, lm := 0.0, 0.0
			if t < len(m.LoadAvg) {
				la, lm = m.LoadAvg[t], m.LoadMax[t]
			}
			fmt.Printf("%d\t%.0f\t%.0f\t%.3f\t%.3f\n", t, m.Drops.Sum(t), m.Creations.Sum(t), la, lm)
		}
	}
}

func printSummary(sim *terradir.Simulation, tree *terradir.Tree) {
	m := sim.Metrics
	agg := sim.AggregateStats()
	fmt.Printf("\nqueries: injected=%.0f completed=%d dropped=%d (%.4f) failTTL=%d failNoRoute=%d\n",
		m.Injected.Total(), m.Completed, m.DroppedTotal, m.DropFraction(), m.FailedTTL, m.FailedNoRoute)
	fmt.Printf("latency: mean=%.1fms p50=%.1fms p99=%.1fms  hops: mean=%.2f p99=%.0f\n",
		m.Latency.Mean()*1000, m.Latency.Quantile(0.5)*1000, m.Latency.Quantile(0.99)*1000,
		m.Hops.Mean(), m.Hops.Quantile(0.99))
	fmt.Printf("load: mean=%.3f  routing accuracy=%.3f\n", m.MeanLoad(), m.Accuracy())
	fmt.Printf("replication: creations=%d evictions=%d live=%d sessions=%d (ok %d, aborted %d)\n",
		m.TotalCreations(), m.Evictions, sim.TotalReplicas(), agg.SessionsStarted, agg.SessionsOK, agg.SessionsAborted)
	fmt.Printf("messages: query=%d result=%d control=%d (control/query ratio %.5f)\n",
		m.QueryMsgs, m.ResultMsgs, m.ControlMsgs, float64(m.ControlMsgs)/float64(max64(m.QueryMsgs, 1)))
	fmt.Printf("routing mix: context=%d cache=%d digest-shortcuts=%d\n",
		agg.ContextHops, agg.CacheHits, agg.DigestShortcuts)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
