package main

import (
	"fmt"
	"os"
	"time"

	"terradir/internal/namespace"
)

// setupRepeats is how many times a run sets its system up. Set-up time is a
// gated metric, and one boot is too short and too exposed to whatever else
// the host is doing to be compared across commits; the run reports the
// median. Only the first set-up is measured under load; the others are
// booted, warmed and stopped after the measurement, so the measured system
// lives in a fresh process.
const setupRepeats = 3

// result is what one run of one workload reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// diagnostics are printed beside the result but gated by nothing: either
	// too noisy to bound (tail latencies), or zero on a healthy run.
	diagnostics map[string]metric
	problems    []string

	coldFailed int // failures within the cold-start prefix of the warm-ups
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// booted is one completed set-up: a warmed system and what it cost.
type booted struct {
	tree *namespace.Tree
	sys  *system
	st   *stream
	took time.Duration
	cold round // the warm-up's cold-start prefix
	warm round // the rest of the warm-up
}

// setUp builds the namespace, boots the system and runs the warm-up stream
// through it.
func setUp(sp spec, seed uint64, tap *tapTransport) (*booted, error) {
	t0 := time.Now()
	b := &booted{tree: namespace.NewBalanced(2, sp.levels)}
	dir := ""
	if sp.durable {
		var err error
		if dir, err = scratchDir(); err != nil {
			return nil, err
		}
	}
	sys, err := boot(sp, b.tree, tap, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("booting %s: %w", sp.name, err)
	}
	b.sys = sys
	b.st = newStream(sp, b.tree, sys.c.owner, seed)
	cold := int(coldShare * float64(sp.warmOps))
	b.cold = closedRound(sys, b.st.next(cold), clients(), 0)
	b.warm = closedRound(sys, b.st.next(sp.warmOps-cold), clients(), cold)
	b.took = time.Since(t0)
	return b, nil
}

// tearDown stops the system and removes what it wrote.
func (b *booted) tearDown() {
	b.sys.stop()
	if b.sys.dir != "" {
		os.RemoveAll(b.sys.dir)
	}
}

// measure drives the measured phase: rounds of sp.roundOps operations until
// `seconds` have passed. onRound, when set, is told each round's index before
// it starts (the traced pass switches its tap there).
func measure(sp spec, b *booted, seconds float64, onRound func(k int)) []round {
	var rounds []round
	t0 := time.Now()
	for k := 0; time.Since(t0).Seconds() < seconds; k++ {
		ops := b.st.next(sp.roundOps)
		if onRound != nil {
			onRound(k)
		}
		rounds = append(rounds, closedRound(b.sys, ops, clients(), sp.warmOps+k*sp.roundOps))
	}
	return rounds
}

// tally adds a measured round's attempts and failures to the result. Any
// failure makes the run incorrect.
func (r *result) tally(k int, rd *round) {
	r.Attempted += rd.ops
	r.Failed += rd.failed
	if rd.firstErr != nil {
		r.fail("round %d: %d of %d operations failed, first: %v", k, rd.failed, rd.ops, rd.firstErr)
	}
}

// coldShare is the leading share of the warm-up in which failures are
// tolerated. At the seed commit a cluster that has just booted fails a few
// of its first lookups: two servers pass the query back and forth on a
// digest false positive until its hop limit, and stop once digests and
// caches have spread (README, "Findings"). Every failure seen — a handful
// per boot, none in 3 million lookups afterwards — fell in the first 1 % of
// the warm-up. They are counted beside the result; a failure anywhere after
// this prefix makes the run incorrect.
const coldShare = 0.10

func (r *result) tallyWarmUp(b *booted) {
	r.coldFailed += b.cold.failed
	if rd := &b.warm; rd.failed > 0 {
		r.fail("warm-up: %d of %d operations failed after the cold-start prefix, first: %v", rd.failed, rd.ops, rd.firstErr)
	}
}

// endToEnd reduces the measured rounds to the end-to-end metrics.
// Percentiles are medians over rounds, so one round that met a garbage
// collection or a snapshot does not set the figure. Throughput and costs are
// totals over all rounds, which uses every round's information: round rates
// scatter by a fifth around their centre (snapshot publishing comes in
// bursts), and the run-to-run spread of their total is a fifth narrower than
// that of their median.
func endToEnd(res *result, rounds []round, setups []float64, peakRSS float64, retried int64) {
	var p50, p99, p999 []float64
	var ops, good, hops int
	var cpu, wall time.Duration
	var allocs uint64
	worst := 0.0
	for i := range rounds {
		rd := &rounds[i]
		ops += rd.ops
		good += len(rd.lat)
		hops += rd.hops
		cpu += rd.end.cpu - rd.start.cpu
		allocs += rd.end.allocs - rd.start.allocs
		wall += rd.wall()
		if len(rd.lat) == 0 {
			continue
		}
		p50 = append(p50, percentile(rd.lat, 0.50))
		p99 = append(p99, percentile(rd.lat, 0.99))
		p999 = append(p999, percentile(rd.lat, 0.999))
		worst = max(worst, rd.lat[len(rd.lat)-1])
	}
	if good == 0 {
		res.fail("no operation succeeded")
		good, ops = 1, max(ops, 1)
	}
	res.Metrics = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"ops_per_s":      {float64(good) / wall.Seconds(), "1/s"},
		"lat_p50_us":     {median(p50), "us"},
		"lat_p99_us":     {median(p99), "us"},
		"hops_mean":      {float64(hops) / float64(good), "hops"},
		"allocs_per_op":  {float64(allocs) / float64(ops), "count"},
		"cpu_ms_per_kop": {cpu.Seconds() * 1e6 / float64(ops), "ms"},
		"peak_rss_mb":    {peakRSS, "MiB"},
	}
	res.diagnostics = map[string]metric{
		"fail_frac":         {float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"},
		"cold_start_failed": {float64(res.coldFailed), "count"},
		"retried":           {float64(retried), "count"},
		"lat_p999_us":       {median(p999), "us"},
		"lat_max_us":        {worst, "us"},
		"samples":           {float64(good), "count"},
		"rounds":            {float64(len(rounds)), "count"},
	}
}

// runWorkload runs one workload once and returns its result. With traced
// set it runs the traced pass instead and reports the per-layer metrics.
func runWorkload(sp spec, seed uint64, seconds float64, traced bool) (*result, error) {
	res := &result{Correct: true}
	var tap *tapTransport
	if traced {
		tap = newTap()
	}
	b, err := setUp(sp, seed, tap)
	if err != nil {
		return nil, err
	}
	res.tallyWarmUp(b)
	setups := []float64{b.took.Seconds()}

	var tr *tracer
	var onRound func(int)
	if traced {
		tr = newTracer(sp, b, tap)
		onRound = tr.onRound
	}
	rounds := measure(sp, b, seconds, onRound)
	for i := range rounds {
		res.tally(i, &rounds[i])
	}
	if traced {
		tr.finish()
	}
	peakRSS := peakRSSMiB()
	retried := b.sys.retried.Load() // warm-up included

	// The end-to-end run restarts from a quiesced stop and every write must
	// be there; the traced run stops as it is and reports what was lost.
	var restart time.Duration
	lostFrac := 0.0
	if sp.durable {
		var lost int
		if restart, lost, err = b.sys.restartAndReadBack(b.tree, !traced); err != nil {
			res.fail("restart: %v", err)
		}
		lostFrac = ratio(float64(lost), float64(len(b.sys.acked)))
		if lost > 0 && !traced {
			res.Failed += lost
			res.fail("restart: %d of %d acknowledged writes did not survive", lost, len(b.sys.acked))
		}
	}
	b.tearDown()

	if traced {
		var errs []error
		res.Metrics, errs = tr.layerMetrics(rounds, restart, lostFrac)
		for _, err := range errs {
			res.fail("traced pass: %v", err)
		}
		return res, nil
	}
	for k := 1; k < setupRepeats; k++ {
		again, err := setUp(sp, seed, nil)
		if err != nil {
			return nil, err
		}
		res.tallyWarmUp(again)
		setups = append(setups, again.took.Seconds())
		again.tearDown()
	}
	endToEnd(res, rounds, setups, peakRSS, retried)
	return res, nil
}
