// Package telemetry is the observability subsystem of the live TerraDir
// deployment: an allocation-light, concurrency-safe metrics registry
// (atomic counters, scrape-time function-backed counters and gauges, and
// fixed log-spaced-bucket streaming histograms), a bounded per-lookup trace
// store, and an HTTP admin handler exposing Prometheus text and pprof.
//
// The package depends only on the standard library so every layer of the
// system (core, overlay, cmd) can import it without cycles. Hot-path
// operations (Counter.Inc, Histogram.Observe) are single atomic
// updates with no locks or allocations; registration and scraping take the
// registry lock.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// metricKind tags a family's exposition type.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance of a metric family.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	ctr    *Counter
	fn     func() float64 // function-backed counter or gauge
	hist   *Histogram
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
	order  []string // label strings in registration order
}

// Registry is a named collection of metrics. The zero value is not usable;
// construct with NewRegistry. All methods are safe for concurrent use.
// Registration is idempotent: asking for an existing (name, labels) pair
// returns the same metric instance, so independent components can share
// counters by name.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns alternating key, value strings into a Prometheus label
// block (`{k="v",...}`), empty for no labels. Odd trailing keys are dropped.
func renderLabels(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		v := labels[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// getSeries returns (creating as needed) the series for (name, labels),
// verifying the family kind. Mixing kinds under one name is a programming
// error and panics.
func (r *Registry) getSeries(name, help string, kind metricKind, labels []string) *series {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	s, ok := f.series[ls]
	if !ok {
		s = &series{labels: ls}
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
// labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.getSeries(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ctr == nil && s.fn == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// CounterFunc registers a function-backed counter (a cumulative value owned
// elsewhere, e.g. a transport's atomic counters). fn is called at scrape
// time. Re-registering replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	s := r.getSeries(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
	s.ctr = nil
}

// GaugeFunc registers a function-backed gauge sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s := r.getSeries(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// Histogram returns the streaming histogram for (name, labels) with the
// given bucket layout (zero opts select the default seconds-oriented
// layout), creating it on first use.
func (r *Registry) Histogram(name, help string, opts HistogramOpts, labels ...string) *Histogram {
	s := r.getSeries(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = NewHistogram(opts)
	}
	return s.hist
}

func (s *series) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.ctr != nil:
		return float64(s.ctr.Value())
	}
	return 0
}

// sortedFamilies snapshots family pointers in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (v0.0.4), families sorted by name, series in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		r.mu.Lock()
		order := append([]string(nil), f.order...)
		ser := make([]*series, 0, len(order))
		for _, ls := range order {
			ser = append(ser, f.series[ls])
		}
		r.mu.Unlock()
		for _, s := range ser {
			if f.kind == kindHistogram {
				if s.hist != nil {
					s.hist.writePrometheus(w, f.name, s.labels)
				}
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.value()))
		}
	}
}

// Snapshot returns every scalar metric keyed by "name{labels}"; histograms
// contribute "_count" and "_sum" entries. Intended for shutdown dumps and
// tests.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.sortedFamilies() {
		r.mu.Lock()
		ser := make([]*series, 0, len(f.order))
		for _, ls := range f.order {
			ser = append(ser, f.series[ls])
		}
		r.mu.Unlock()
		for _, s := range ser {
			if f.kind == kindHistogram {
				if s.hist != nil {
					out[f.name+"_count"+s.labels] = float64(s.hist.Count())
					out[f.name+"_sum"+s.labels] = s.hist.Sum()
				}
				continue
			}
			out[f.name+s.labels] = s.value()
		}
	}
	return out
}

// DumpNonZero writes every non-zero Snapshot entry to w, one per line in name
// order, each line led by prefix: the daemons' shutdown report.
func (r *Registry) DumpNonZero(w io.Writer, prefix string) {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name, v := range snap {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s: metric %s = %g\n", prefix, name, snap[name])
	}
}

// formatValue renders a sample value: integers without exponent noise,
// everything else in compact scientific form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
