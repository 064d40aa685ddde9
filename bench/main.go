// Command bench is the repository's benchmark: four paper-scale workloads
// over the live overlay, end-to-end metrics with regression bounds, and a
// traced pass that attributes cost to the internal/ layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+specNames()+", or all (one child process per workload)")
		seed         = flag.Uint64("seed", 1, "seed of the request stream")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the measured phase")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		calibrate    = flag.Int("calibrate", 0, "run N full sets on N seeds, print each metric's spread, write the bounds into BENCHMARK.json")
		manifest     = flag.Bool("manifest", false, "rewrite BENCHMARK.json from the program's own declarations, keeping the bounds it holds")
		compare      = flag.Bool("compare", false, "compare two `-workload all` outputs given as arguments; exit 1 if a gated metric worsened beyond its bound")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args())
	case *manifest:
		err = manifestMain()
	case *calibrate > 0:
		err = calibrateMain(*calibrate, *seconds)
	case *workloadName == "all":
		err = allMain(*seed, *seconds, *trace == 1)
	default:
		err = oneMain(*workloadName, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultSeconds is the measured phase's length, and BENCHMARK.json's
// run_seconds.
const defaultSeconds = 20

func specNames() string {
	s := ""
	for i, sp := range specs {
		if i > 0 {
			s += ", "
		}
		s += sp.name
	}
	return s
}

// report is what a child process prints before its result line, and what
// `-workload all` prints per workload with the result folded in.
type report struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Host        hostRecord        `json:"host"`
	Diagnostics map[string]metric `json:"diagnostics,omitempty"`
	Problems    []string          `json:"problems,omitempty"`
	*result
}

// oneMain runs one workload in this process. Standard output ends with the
// result object the driver's contract asks for, alone on the last line; the
// line before it carries the host record and the ungated diagnostics.
func oneMain(name string, seed uint64, seconds float64, traced bool) error {
	sp, ok := findSpec(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s, or all)", name, specNames())
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %g: want at least 1", seconds)
	}
	res, err := runWorkload(sp, seed, seconds, traced)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report{Workload: sp.name, Seed: seed, Seconds: seconds, Trace: traced,
		Host: readHost(), Diagnostics: res.diagnostics, Problems: res.problems}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: run incorrect or invalid: %v", sp.name, res.problems)
	}
	return nil
}

// sortedKeys returns m's keys in order, for stable tables.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
