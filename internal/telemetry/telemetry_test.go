package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Idempotent registration returns the same instance.
	if r.Counter("x_total", "help") != c {
		t.Fatal("re-registration returned a different counter")
	}
	v := 2.5
	r.GaugeFunc("g", "help", func() float64 { return v })
	v = 1.5
	if got := r.Snapshot()["g"]; got != 1.5 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h", "server", "0")
	b := r.Counter("x_total", "h", "server", "1")
	if a == b {
		t.Fatal("different labels share a counter")
	}
	a.Inc()
	snap := r.Snapshot()
	if snap[`x_total{server="0"}`] != 1 || snap[`x_total{server="1"}`] != 0 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.GaugeFunc("x", "h", func() float64 { return 0 })
}

func TestPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second", "server", "3").Add(7)
	r.GaugeFunc("a_gauge", "first", func() float64 { return 1.25 })
	r.CounterFunc("f_total", "func-backed", func() float64 { return 42 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge", "a_gauge 1.25",
		"# TYPE b_total counter", `b_total{server="3"} 7`,
		"f_total 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Families sorted by name.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(HistogramOpts{Min: 1e-3, Max: 1e3, BucketsPerDecade: 16})
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 10) // 0.1 .. 100
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-50.05) > 1e-9 {
		t.Fatalf("mean = %v (sum must be exact)", m)
	}
	// Log-bucket quantiles are within one bucket ratio (~15% at 16/decade).
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99},
	} {
		got := h.Quantile(tc.q)
		if got < tc.want*0.8 || got > tc.want*1.25 {
			t.Fatalf("q%v = %v, want ~%v", tc.q, got, tc.want)
		}
	}
}

func TestHistogramBoundsAndOverflow(t *testing.T) {
	h := NewHistogram(HistogramOpts{Min: 1, Max: 100, BucketsPerDecade: 4})
	h.Observe(0)   // underflow
	h.Observe(-5)  // underflow (never panics)
	h.Observe(1e9) // overflow
	h.Observe(math.NaN())
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("underflow quantile = %v", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("overflow quantile = %v (want Max)", q)
	}
}

func TestHistogramPrometheusRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", HistogramOpts{Min: 0.001, Max: 10, BucketsPerDecade: 2}, "server", "1")
	h.Observe(0.5)
	h.Observe(100) // overflow
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`le="+Inf"} 2`,
		`lat_seconds_count{server="1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentUpdates exercises the lock-free paths under the race
// detector (CI runs this package with -race).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	h := r.Histogram("h_seconds", "h", HistogramOpts{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
}
