package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"terradir/internal/telemetry"
)

// scraped is one reading of a set of registries, with every family summed
// over its label sets (servers): counters and gauges by name, histograms as
// cumulative counts by bucket bound. It is parsed from the Prometheus text
// the program already exports, so the benchmark reads what an operator reads.
type scraped struct {
	val  map[string]float64
	hist map[string]map[float64]float64
}

func scrape(regs []*telemetry.Registry) scraped {
	s := scraped{val: map[string]float64{}, hist: map[string]map[float64]float64{}}
	var buf bytes.Buffer
	for _, r := range regs {
		buf.Reset()
		r.WritePrometheus(&buf)
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			name, labels := line[:sp], ""
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name, labels = name[:i], name[i:]
			}
			base, isBucket := strings.CutSuffix(name, "_bucket")
			if !isBucket {
				s.val[name] += v
				continue
			}
			le := math.Inf(1)
			if i := strings.Index(labels, `le="`); i >= 0 {
				rest := labels[i+4:]
				if f, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64); err == nil {
					le = f
				}
			}
			if s.hist[base] == nil {
				s.hist[base] = map[float64]float64{}
			}
			s.hist[base][le] += v
		}
	}
	return s
}

// sumSeries adds up every series of one family in a Registry.Snapshot map,
// whatever its labels.
func sumSeries(snap map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range snap {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// delta is what happened between two scrapes.
type delta struct{ from, to scraped }

func (d delta) count(name string) float64 { return d.to.val[name] - d.from.val[name] }

// ratio returns count(num)/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mean is a histogram's mean over the interval.
func (d delta) mean(name string) float64 {
	return ratio(d.count(name+"_sum"), d.count(name+"_count"))
}

// quantile estimates a histogram's q-quantile over the interval as the
// geometric middle of the bucket that holds it, as telemetry.Histogram does.
func (d delta) quantile(name string, q float64) float64 {
	to := d.to.hist[name]
	if len(to) == 0 {
		return 0
	}
	bounds := make([]float64, 0, len(to))
	for le := range to {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	from := d.from.hist[name]
	total := to[math.Inf(1)] - from[math.Inf(1)]
	if total <= 0 {
		return 0
	}
	rank := math.Ceil(q * total)
	for i, le := range bounds {
		if to[le]-from[le] < rank {
			continue
		}
		switch {
		case math.IsInf(le, 1):
			return bounds[max(i-1, 0)]
		case i == 0:
			return le
		}
		return math.Sqrt(bounds[i-1] * le)
	}
	return 0
}
