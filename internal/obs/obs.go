// Package obs is the repo's observability substrate: a dependency-free
// metrics registry — atomic counters, gauges and fixed-bucket
// histograms, all label-supporting — with a Prometheus-text-format
// exposition handler (expo.go).
//
// Design constraints, in order:
//
//   - Zero dependencies. The repo reproduces a paper with nothing but
//     the standard library; the observability layer keeps that stance.
//     The exposition format is the Prometheus text format because it is
//     a de-facto lingua franca any scraper (or grep) can read, not
//     because the client library is wanted.
//   - Hot-path safe. Every instrument update is one or two atomic
//     operations, no allocation, no locks. Label resolution (the only
//     map lookup) happens once at wiring time: callers hold *Counter /
//     *Gauge / *Histogram handles obtained via With(...), not label
//     maps they re-resolve per event.
//   - Non-perturbing. Instruments observe simulation results, they
//     never participate in them; the ftsim equivalence tests prove
//     campaign statistics are byte-identical with metrics on and off.
//
// Registration is idempotent: asking a Registry for a family that
// already exists with the same shape returns the existing one, so
// independent components can share a registry without coordination.
// Re-registering a name with a different kind, help, labels or buckets
// panics — that is a programming error, not a runtime condition.
package obs

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them (WritePrometheus,
// Handler). The zero value is not usable; create with NewRegistry.
// All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric with its label dimensions and the series
// (one per distinct label-value tuple) it has accumulated.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // label-tuple key -> *Counter | *Gauge | *Histogram
}

// register returns the family, creating it on first use and checking
// shape compatibility on every later one.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil {
		if f.kind != kind || f.help != help ||
			!slices.Equal(f.labels, labels) || !slices.Equal(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]any),
	}
	r.fams[name] = f
	return f
}

// key joins label values into the series map key. \xff cannot appear in
// a UTF-8 label value, so the join is unambiguous.
func seriesKey(values []string) string {
	return strings.Join(values, "\xff")
}

// with resolves (creating on first use) the series for the given label
// values; make builds a fresh series value.
func (f *family) with(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d",
			f.name, len(f.labels), len(values)))
	}
	k := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.series[k]; s != nil {
		return s
	}
	s := make()
	f.series[k] = s
	return s
}

// sortedSeries snapshots the family's series in deterministic (sorted
// label tuple) order for exposition.
func (f *family) sortedSeries() (keys []string, vals []any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys = slices.Sorted(maps.Keys(f.series))
	vals = make([]any, len(keys))
	for i, k := range keys {
		vals[i] = f.series[k]
	}
	return keys, vals
}

// ---------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing count. All methods are
// allocation-free and safe for concurrent use.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// CounterVec is a counter family partitioned by labels.
type CounterVec struct {
	fam *family
}

// NewCounter registers (or finds) a counter family. With no labels the
// returned vec has exactly one series, reached via With().
func (r *Registry) NewCounter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, KindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Resolve once at wiring time and keep the handle; With does
// a map lookup under the family lock.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.with(labelValues, func() any { return new(Counter) }).(*Counter)
}

// ---------------------------------------------------------------------
// Gauge

// Gauge is a value that can go up and down. All methods are
// allocation-free and safe for concurrent use.
type Gauge struct {
	n atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.n.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.n.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.n.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct {
	fam *family
}

// NewGauge registers (or finds) a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, KindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.with(labelValues, func() any { return new(Gauge) }).(*Gauge)
}

// ---------------------------------------------------------------------
// Histogram

// Histogram accumulates observations into fixed buckets chosen at
// registration. Observe is allocation-free: a binary search over the
// bucket bounds plus three atomic adds. The exposed _sum is a float
// accumulated by CAS; under heavy contention the CAS loop retries, but
// observation never blocks.
type Histogram struct {
	bounds []float64       // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Branchless-ish bucket pick: linear scan beats binary search for the
	// short bucket lists used here and is trivially correct.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct {
	fam *family
}

// NewHistogram registers (or finds) a histogram family with the given
// bucket upper bounds (ascending; the +Inf bucket is implicit). nil
// buckets select DefSecondsBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefSecondsBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
	return &HistogramVec{fam: r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.with(labelValues, func() any {
		return &Histogram{
			bounds: v.fam.buckets,
			counts: make([]atomic.Uint64, len(v.fam.buckets)+1),
		}
	}).(*Histogram)
}

// Default bucket ladders. Durations in this repo span four orders of
// magnitude — a trial is milliseconds to minutes, an HTTP request is
// sub-millisecond to seconds — so both ladders are roughly geometric
// (x2.5 per step) rather than linear: constant relative resolution,
// bounded cardinality.
var (
	// DefSecondsBuckets suits wall-clock durations from 1ms to minutes
	// (campaign trials, queue waits).
	DefSecondsBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300}
	// HTTPSecondsBuckets suits request latencies from 100µs up.
	HTTPSecondsBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10}
)
