package main

import (
	"os"
	"sort"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
)

// miniature shrinks a workload to a 255-node namespace on four servers and
// a few hundred operations per round, so that all four run in seconds. Every
// code path of the full workload still executes.
func miniature(sp spec) spec {
	sp.levels, sp.servers = 8, 4
	sp.roundOps, sp.warmOps = 300, 500
	sp.snapshotEvery = 50 * time.Millisecond
	return sp
}

// inRepoRoot runs the test from the repository root, where run.sh runs the
// program: BENCHMARK.json and the build directory are found relative to it.
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestSmoke runs a miniature of every workload in both modes and holds the
// output to BENCHMARK.json: every declared workload and metric appears, with
// its declared unit, and nothing else does.
func TestSmoke(t *testing.T) {
	inRepoRoot(t)
	bf, err := readBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	oldSlice, oldOpen := layerSlice, openSeconds
	layerSlice, openSeconds = time.Millisecond, 0.2
	defer func() { layerSlice, openSeconds = oldSlice, oldOpen }()

	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(bf.Workloads), len(specs))
	}
	wantE2E := map[string]string{}
	for _, g := range bf.EndToEnd {
		wantE2E[g.Name] = g.Unit
	}
	wantLayer := map[string]string{}
	for _, l := range bf.PerLayer {
		wantLayer[l.Name] = l.Unit
	}
	for _, w := range bf.Workloads {
		sp, ok := findSpec(w.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
			continue
		}
		for _, mode := range []struct {
			traced bool
			want   map[string]string
		}{{false, wantE2E}, {true, wantLayer}} {
			res, err := runWorkload(miniature(sp), 1, 0.3, mode.traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, mode.traced, err)
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: nothing attempted", w.Name, mode.traced)
			}
			// A miniature cluster is mostly cold, so the cold-start failures
			// the full workloads warm away can show here; they are logged,
			// not asserted.
			for _, p := range res.problems {
				t.Logf("%s traced=%v: %s", w.Name, mode.traced, p)
			}
			for name, unit := range mode.want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s is declared but not printed", w.Name, mode.traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, declared %q", w.Name, mode.traced, name, got.Unit, unit)
				}
			}
			for _, name := range sortedKeys(res.Metrics) {
				if _, ok := mode.want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is printed but not declared", w.Name, mode.traced, name)
				}
			}
		}
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	tree := namespace.NewBalanced(2, 4)
	const dest = core.NodeID(5)
	good := answer{ok: true, node: dest, name: tree.Name(dest), hosts: []core.ServerID{1}}
	if err := checkAnswer(tree, dest, good); err != nil {
		t.Fatalf("a correct answer was rejected: %v", err)
	}
	for what, a := range map[string]answer{
		"wrong name":   {ok: true, node: dest, name: tree.Name(dest + 1), hosts: good.hosts},
		"wrong node":   {ok: true, node: dest + 1, name: good.name, hosts: good.hosts},
		"no hosts":     {ok: true, node: dest, name: good.name},
		"not resolved": {node: dest, name: good.name, hosts: good.hosts},
	} {
		if checkAnswer(tree, dest, a) == nil {
			t.Errorf("answer with %s was accepted", what)
		}
	}
	hostsNothing := func(core.ServerID, core.NodeID) bool { return false }
	if checkHosted(hostsNothing, dest, good.hosts) == nil {
		t.Error("an answer naming a server that does not host the node was accepted")
	}
}

// A refused write must reach the result as a failed operation and make the
// run incorrect.
func TestRefusedWriteFailsTheRun(t *testing.T) {
	ops := []op{{}, {write: true}, {}}
	out := make([]outcome, len(ops))
	out[1].err = errRefused
	var rd round
	fold(&rd, ops, out, false)
	if rd.ops != 3 || rd.failed != 1 || len(rd.lat) != 2 || len(rd.writeLat) != 0 {
		t.Fatalf("round after one refused write of three ops: %+v", rd)
	}
	res := &result{Correct: true}
	res.tally(0, &rd)
	if res.Correct || res.Failed != 1 || res.Attempted != 3 {
		t.Errorf("result after a refused write: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestPacerHoldsScheduleWhenIdle pins the property the open loop rests on:
// in an otherwise idle process the pacer releases arrivals on time. A pacer
// built on time.Sleep fails this — an idle Go process sleeps in epoll_wait,
// which rounds the 500 µs interval up to a millisecond.
func TestPacerHoldsScheduleWhenIdle(t *testing.T) {
	p := pacer{start: time.Now().Add(5 * time.Millisecond), interval: 500 * time.Microsecond}
	defer p.pin()()
	lag := make([]float64, 400)
	for i := range lag {
		lag[i] = micros(time.Since(p.wait(i)))
	}
	sort.Float64s(lag)
	p50, p99 := percentile(lag, 0.5), percentile(lag, 0.99)
	t.Logf("pacer lag when idle: p50 %.1f us, p99 %.1f us", p50, p99)
	if p50 > 150 {
		t.Errorf("median lag %.1f us; the pacer is not holding a 500 us schedule", p50)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}
