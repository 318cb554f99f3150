// Package obs is the repository's zero-dependency observability layer:
// an atomic metrics registry (counters, gauges, fixed-bucket latency
// histograms) with Prometheus text-format exposition, plus a
// lightweight span API for timing pipeline stages.
//
// The paper's deployment setting (§V: 1.46M Taobao items, 72M comments
// scored in production) presumes operators can see throughput, latency,
// and filter behavior. This package gives the serving stack that
// visibility without importing a client library: every metric is a
// fixed set of atomics, handles are resolved once at package init and
// then updated lock-free, and exposition walks a snapshot under a
// read lock.
//
// Conventions (DESIGN.md §10):
//
//   - metric names are prefixed cats_ and use Prometheus base units
//     (seconds for latency);
//   - hot-path instrumentation is pre-resolved: call Vec.With at
//     package init, never per item;
//   - deterministic packages (tokenize, features, stats, gbt,
//     sentiment) may update counters — pure atomic adds that cannot
//     change outputs — but must not open spans: StartSpan reads the
//     wall clock, and catslint's no-wallclock-rand rule flags it there
//     (see Config.WallclockBridges in internal/lint).
//
// The package imports the standard library only, and no net/http:
// every pipeline package imports obs for its counters, so whatever obs
// links, the cats CLI links and initializes at start-up. Serving the
// registry is internal/service's job — its HTTP middleware and its
// /metrics handler, which calls WritePrometheus (DESIGN.md §10).
//
// The package-level Default registry is what the pipeline instruments
// and what service.Server exposes on /metrics; tests that need
// isolation construct their own Registry.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Default is the process-wide registry. The pipeline's package-level
// instruments (core, features, crawler, service) all register here, and
// catsserve exposes it on /metrics.
var Default = NewRegistry()

// Registry holds metric families keyed by name. Registration is
// idempotent: asking for an existing name with a matching shape returns
// the existing family; a mismatched shape panics (it is a programming
// error, caught by the first test that touches the package).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// metric kinds, as emitted in # TYPE lines.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric with a fixed label-key set; its series map
// holds one instrument per distinct label-value tuple.
type family struct {
	name   string
	help   string
	kind   string
	keys   []string
	bounds []float64 // histogram families only

	mu     sync.RWMutex
	series map[string]*series
}

// series is one (family, label values) instrument.
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// labelSep joins label values into series keys; it cannot appear in a
// well-formed label value (exposition escapes would mangle it anyway).
const labelSep = "\xff"

// lookup returns the family, creating it on first registration and
// checking shape consistency on every later one.
func (r *Registry) lookup(name, help, kind string, bounds []float64, keys []string) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{
				name: name, help: help, kind: kind,
				keys:   append([]string(nil), keys...),
				bounds: append([]float64(nil), bounds...),
				series: map[string]*series{},
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	if len(f.keys) != len(keys) || strings.Join(f.keys, labelSep) != strings.Join(keys, labelSep) {
		panic(fmt.Sprintf("obs: metric %q re-registered with label keys %v, was %v", name, keys, f.keys))
	}
	return f
}

// with returns the family's series for the given label values, creating
// it on first use.
func (f *family) with(values []string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %q given %d label values for %d keys", f.name, len(values), len(f.keys)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// snapshot returns the registry's families sorted by name and each
// family's series sorted by label values — the deterministic order the
// exposition writer and quantile readers walk.
func (r *Registry) snapshot() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns the family's series sorted by label values.
func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.series))
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.RUnlock()
	return out
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, kindCounter, nil, keys)}
}

// With resolves the counter for one label-value tuple. Resolve once and
// keep the handle when instrumenting a hot path; With itself takes the
// family lock on first use and allocates the series key.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).c }

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, kindGauge, nil, keys)}
}

// With resolves the gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.with(values).g }

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// HistogramVec is a histogram family with label dimensions. Every
// series shares the family's bucket bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family with the
// given upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) HistogramVec(name, help string, bounds []float64, keys ...string) *HistogramVec {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending at %d", name, i))
		}
	}
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, bounds, keys)}
}

// With resolves the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).h }

// Histogram registers (or finds) an unlabeled histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, bounds).With()
}

// LatencyBuckets is the default latency bound set: log-spaced from 10µs
// to 10s, wide enough for a single trie segmentation pass at the bottom
// and a 10k-item batch detect at the top.
var LatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the default count-shaped bound set (batch sizes,
// item counts) from 1 to the service's 10k-item request cap.
var SizeBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
