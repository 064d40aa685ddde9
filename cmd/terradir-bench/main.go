// Command terradir-bench regenerates the paper's evaluation artifacts
// (Table 1, Figures 3–9, E10/E11 and the design ablations) and writes each
// as a TSV file.
//
// Usage:
//
//	terradir-bench [-exp fig3,fig5] [-scale 1] [-seed 1] [-out results/]
//
// -scale 1 is the paper's configuration (1000 servers, full namespaces and
// durations; budget tens of minutes). Smaller scales shrink everything
// proportionally (-scale 0.05 finishes in a few minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"terradir"
)

func main() {
	var (
		expList = flag.String("exp", "all", "comma-separated experiment IDs (or 'all'); see -list")
		scale   = flag.Float64("scale", 1.0, "deployment scale: 1 = paper (1000 servers)")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		outDir  = flag.String("out", "results", "output directory for TSV files")
		maxDur  = flag.Float64("maxdur", 0, "cap per-run simulated duration in seconds (0 = no cap)")
		list    = flag.Bool("list", false, "list experiments and exit")

		openloop = flag.Bool("openloop", false, "run the open-loop (coordinated-omission-safe) lookup load harness instead of the paper experiments")
		target   = flag.String("target", "direct", "openloop: 'direct' (in-process cluster) or 'gw' (TCP peers behind a terradir-gw gateway)")
		dist     = flag.String("dist", "unif", "openloop: destination distribution, 'unif' or 'zipf'")
		alpha    = flag.Float64("alpha", 0.9, "openloop: Zipf exponent for -dist zipf")
		servers  = flag.Int("servers", 8, "openloop: servers in the cluster")
		clients  = flag.Int("clients", 64, "openloop: load-generator goroutines")
		shards   = flag.String("shards", "1", "openloop: comma-separated per-server shard counts to sweep")
		rates    = flag.String("rate", "20000", "openloop: comma-separated offered arrival rates (lookups/sec)")
		duration = flag.Duration("duration", 5*time.Second, "openloop: measured duration per run")
	)
	flag.Parse()

	if *openloop {
		shardList, err := parseIntList(*shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "terradir-bench: -shards: %v\n", err)
			os.Exit(1)
		}
		rateList, err := parseFloatList(*rates)
		if err != nil {
			fmt.Fprintf(os.Stderr, "terradir-bench: -rate: %v\n", err)
			os.Exit(1)
		}
		openLoopMain(*target, *dist, *alpha, *servers, *clients, shardList, rateList, *duration, *seed)
		return
	}

	if *list {
		for _, d := range terradir.Experiments() {
			fmt.Printf("%-8s %s\n", d.ID, d.Title)
		}
		return
	}

	ids := map[string]bool{}
	all := *expList == "all"
	if !all {
		for _, id := range strings.Split(*expList, ",") {
			ids[strings.TrimSpace(id)] = true
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "terradir-bench: %v\n", err)
		os.Exit(1)
	}
	env := terradir.ReducedScale(*scale, *seed)
	env.MaxDuration = *maxDur
	ran := 0
	for _, d := range terradir.Experiments() {
		if !all && !ids[d.ID] {
			continue
		}
		ran++
		fmt.Printf("== %s: %s\n", d.ID, d.Title)
		start := time.Now()
		r := d.Run(env)
		path := filepath.Join(*outDir, d.ID+".tsv")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "terradir-bench: %v\n", err)
			os.Exit(1)
		}
		if err := r.WriteTSV(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "terradir-bench: write %s: %v\n", path, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "terradir-bench: close %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("   %d rows -> %s (%.1fs)\n", len(r.Rows), path, time.Since(start).Seconds())
		for _, n := range r.Notes {
			fmt.Printf("   # %s\n", n)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "terradir-bench: no experiments matched %q (try -list)\n", *expList)
		os.Exit(1)
	}
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
