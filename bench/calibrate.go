package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// gate declares one end-to-end metric: its unit, which direction is better,
// and the share of the parent's median by which it may worsen.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndDecl lists the end-to-end metrics in reporting order. The bounds
// here are the floor; -calibrate raises them to what the host's noise needs.
var endToEndDecl = []gate{
	{"ops_per_s", "1/s", "higher", minBound},
	{"lat_p50_us", "us", "lower", minBound},
	{"lat_p99_us", "us", "lower", minBound},
	{"hops_mean", "hops", "lower", minBound},
	{"allocs_per_op", "count", "lower", minBound},
	{"cpu_ms_per_kop", "ms", "lower", minBound},
	{"peak_rss_mb", "MiB", "lower", minBound},
	{"setup_s", "s", "lower", maxBound},
}

const (
	minBound = 0.10 // no metric is gated tighter than a tenth
	maxBound = 0.25 // the driver accepts no wider bound
	// A bound must leave room for three quartile spreads: the driver refuses
	// a benchmark whose spread exceeds a third of its bound.
	spreadsPerBound = 3
)

// benchFile mirrors BENCHMARK.json.
type benchFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []gate         `json:"end_to_end"`
	PerLayer   []layerEntry   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const benchFileName = "BENCHMARK.json"

func readBenchFile() (*benchFile, error) {
	b, err := os.ReadFile(benchFileName)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", benchFileName, err)
	}
	return &f, nil
}

// writeBenchFile regenerates BENCHMARK.json from the code's own declarations
// and the given bounds, so the file cannot drift from what the program
// prints.
func writeBenchFile(bounds map[string]float64, runSeconds int) error {
	f := benchFile{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, sp := range specs {
		f.Workloads = append(f.Workloads, workloadDecl{sp.name, sp.why})
	}
	for _, g := range endToEndDecl {
		if b, ok := bounds[g.Name]; ok {
			g.Bound = b
		}
		f.EndToEnd = append(f.EndToEnd, g)
	}
	for _, l := range layerDecl {
		f.PerLayer = append(f.PerLayer, layerEntry{l.name, l.unit, l.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return err
	}
	return os.WriteFile(benchFileName, buf.Bytes(), 0o644)
}

// manifestMain rewrites BENCHMARK.json after a change to the declarations,
// carrying over the bounds and run length already calibrated.
func manifestMain() error {
	bounds, runSeconds := map[string]float64{}, defaultSeconds
	if old, err := readBenchFile(); err == nil {
		for _, g := range old.EndToEnd {
			bounds[g.Name] = g.Bound
		}
		runSeconds = old.RunSeconds
	}
	return writeBenchFile(bounds, runSeconds)
}

// runChild runs one workload in a process of its own and returns its report.
// One process per workload keeps peak memory and garbage-collection debt
// from leaking between workloads.
func runChild(name string, seed uint64, seconds float64, traced bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s printed no result: %v", name, runErr)
	}
	rep := &report{result: &result{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), rep); err != nil {
		return nil, fmt.Errorf("%s: report line: %w", name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), rep.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return rep, runErr
}

// allMain runs every workload, each in its own process, and prints one JSON
// object per workload.
func allMain(seed uint64, seconds float64, traced bool) error {
	enc := json.NewEncoder(os.Stdout)
	var failed []string
	for _, sp := range specs {
		rep, err := runChild(sp.name, seed, seconds, traced)
		if rep != nil {
			if encErr := enc.Encode(rep); encErr != nil {
				return encErr
			}
		}
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", sp.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	return nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them, which is what the driver
// uses to judge spread.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-d) + x[j]*d) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// calibrateMain runs n full sets on seeds 1..n, prints every end-to-end
// metric's median and spread per workload, and writes each metric's bound
// into BENCHMARK.json: three times its widest spread over the workloads, at
// least minBound, at most maxBound.
func calibrateMain(n int, seconds float64) error {
	if n < 5 {
		return fmt.Errorf("-calibrate %d: want at least 5 sets", n)
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for seed := uint64(1); seed <= uint64(n); seed++ {
		for _, sp := range specs {
			rep, err := runChild(sp.name, seed, seconds, false)
			if err != nil {
				return err
			}
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				values[sp.name][name] = append(values[sp.name][name], m.Value)
			}
			for name, m := range rep.Diagnostics {
				values[sp.name][name] = append(values[sp.name][name], m.Value)
			}
			// Echo each report as it arrives, so an aborted calibration
			// still leaves its runs behind.
			if line, err := json.Marshal(rep); err == nil {
				fmt.Fprintf(os.Stderr, "%s\n", line)
			}
		}
	}
	bounds := map[string]float64{}
	fmt.Printf("| workload | metric | median | Q1 | Q3 | spread |\n|---|---|---|---|---|---|\n")
	for _, sp := range specs {
		for _, name := range sortedKeys(values[sp.name]) {
			v := values[sp.name][name]
			q1, q3 := quartiles(v)
			s := spread(v)
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.1f%% |\n", sp.name, name, median(v), q1, q3, s*100)
			bounds[name] = max(bounds[name], s)
		}
	}
	fmt.Printf("\n| metric | widest spread | bound |\n|---|---|---|\n")
	for _, g := range endToEndDecl {
		widest := bounds[g.Name]
		b := math.Ceil(spreadsPerBound*widest*100) / 100
		b = min(max(b, g.Bound), maxBound)
		bounds[g.Name] = b
		note := ""
		if spreadsPerBound*widest > maxBound && g.Name != "setup_s" { // the driver exempts set-up time's spread
			note = " (spread too wide to gate: move to diagnostics)"
		}
		fmt.Printf("| %s | %.1f%% | %.2f%s |\n", g.Name, widest*100, b, note)
	}
	return writeBenchFile(bounds, int(seconds))
}

// readReports reads a file of `-workload all` output: one report per line.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rep := &report{result: &result{}}
		if err := json.Unmarshal([]byte(line), rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Workload == "" || rep.Trace {
			continue
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareMain compares two files of `-workload all` output, before and
// after. For every workload and gated metric it takes the median of each
// side's values, and it fails when the second is worse than the first by
// more than the metric's bound.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two files: before.json after.json")
	}
	bf, err := readBenchFile()
	if err != nil {
		return err
	}
	before, err := readReports(args[0])
	if err != nil {
		return err
	}
	after, err := readReports(args[1])
	if err != nil {
		return err
	}
	var worse []string
	fmt.Printf("| workload | metric | before | after | change | bound |\n|---|---|---|---|---|---|\n")
	for _, w := range bf.Workloads {
		for _, g := range bf.EndToEnd {
			a, b := before[w.Name][g.Name], after[w.Name][g.Name]
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s/%s is missing from one side", w.Name, g.Name)
			}
			ma, mb := median(a), median(b)
			change := ratio(mb-ma, ma) // positive = grew
			if g.Better == "higher" {
				change = -change
			}
			verdict := ""
			if change > g.Bound {
				verdict = " WORSE"
				worse = append(worse, w.Name+"/"+g.Name)
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.1f%%%s | %.0f%% |\n", w.Name, g.Name, ma, mb, change*100, verdict, g.Bound*100)
		}
	}
	if len(worse) > 0 {
		return fmt.Errorf("worse beyond bound: %s", strings.Join(worse, ", "))
	}
	return nil
}
