// Command terradir-exp regenerates the paper's evaluation artifacts
// (Table 1, Figures 3–9, E10/E11 and the design ablations) and writes each
// as a TSV file.
//
// Usage:
//
//	terradir-exp [-exp fig3,fig5] [-scale 1] [-seed 1] [-out results/]
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
	)
	flag.Parse()

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
		fmt.Fprintf(os.Stderr, "terradir-exp: %v\n", err)
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
			fmt.Fprintf(os.Stderr, "terradir-exp: %v\n", err)
			os.Exit(1)
		}
		if err := r.WriteTSV(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "terradir-exp: write %s: %v\n", path, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "terradir-exp: close %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("   %d rows -> %s (%.1fs)\n", len(r.Rows), path, time.Since(start).Seconds())
		for _, n := range r.Notes {
			fmt.Printf("   # %s\n", n)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "terradir-exp: no experiments matched %q (try -list)\n", *expList)
		os.Exit(1)
	}
}
