// Package obs is the observability substrate for the measurement pipeline:
// a dependency-free metrics core (atomic counters, gauges, and fixed-bucket
// latency histograms with quantile estimation, grouped in a concurrent
// Registry with labeled children), a log/slog-based structured logging
// setup, and an HTTP exposition server publishing Prometheus-text
// /metrics, expvar-style /debug/vars, and net/http/pprof profiles.
//
// The paper's measurement platform (§3.1, Fig 1) is a long-running
// three-stage system — zone acquisition, worker-cloud resolution, storage
// — whose operators trust it because every stage exposes counters and
// latency distributions. This package gives the reproduction the same
// substrate: each hot layer (dnsclient, dnsserver, transport, measure,
// store, experiment) registers its metrics on the process-wide Default
// registry at package init, and binaries opt into exposition with a
// -metrics-addr flag.
//
// Recording is wait-free (a single atomic op per counter/gauge update,
// two per histogram observation) so instrumentation never perturbs the
// measured semantics; mode-equivalence tests assert byte-identical rows
// with instrumentation compiled in.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use, but counters are normally obtained from a Registry so they are
// exposed on /metrics.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored to keep the counter monotonic.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits so
// utilizations and rates fit alongside integral levels.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeVec
	kindHistogramVec
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeVec:
		return "gauge"
	case kindHistogram, kindHistogramVec:
		return "histogram"
	}
	return "untyped"
}

// entry is one registered metric family.
type entry struct {
	name string
	help string
	kind metricKind
	m    any
}

// Registry groups named metrics for exposition. All methods are safe for
// concurrent use; registration is idempotent (asking for an existing name
// returns the existing metric) but re-registering a name as a different
// kind panics, as that is a programming error.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	order   []string // registration order, for stable exposition
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// defaultRegistry is the process-wide registry instrumented packages
// register on at init.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register returns the existing entry for name or creates one with make.
func (r *Registry) register(name, help string, kind metricKind, mk func() any) any {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, e.kind))
		}
		return e.m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, e.kind))
		}
		return e.m
	}
	m := mk()
	r.entries[name] = &entry{name: name, help: help, kind: kind, m: m}
	r.order = append(r.order, name)
	return m
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or fetches) a histogram. bounds are the ascending
// bucket upper bounds in seconds (or any unit); nil uses DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, func() any { return newHistogram(bounds) }).(*Histogram)
}

// GaugeVec registers (or fetches) a family of gauges keyed by one label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return r.register(name, help, kindGaugeVec, func() any {
		return &GaugeVec{label: label, children: make(map[string]*Gauge)}
	}).(*GaugeVec)
}

// HistogramVec registers (or fetches) a family of histograms keyed by one
// label.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return r.register(name, help, kindHistogramVec, func() any {
		return &HistogramVec{label: label, bounds: bounds, children: make(map[string]*Histogram)}
	}).(*HistogramVec)
}

// Lookup returns the registered metric (a *Counter, *Gauge, *Histogram,
// or vec) by name.
func (r *Registry) Lookup(name string) (any, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	return e.m, true
}

// GaugeVec is a family of gauges distinguished by one label value
// (e.g. slo_status{slo="domain-latency"}).
type GaugeVec struct {
	mu       sync.RWMutex
	label    string
	children map[string]*Gauge
}

// With returns the child gauge for the label value.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.RLock()
	g, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.children[value]; ok {
		return g
	}
	g = &Gauge{}
	v.children[value] = g
	return g
}

func (v *GaugeVec) sortedValues() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.children))
	for val := range v.children {
		out = append(out, val)
	}
	sort.Strings(out)
	return out
}

// HistogramVec is a family of histograms distinguished by one label value
// (e.g. measure_stage_seconds{stage="resolution"}).
type HistogramVec struct {
	mu       sync.RWMutex
	label    string
	bounds   []float64
	children map[string]*Histogram
}

// With returns the child histogram for the label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children[value]; ok {
		return h
	}
	h = newHistogram(v.bounds)
	v.children[value] = h
	return h
}

func (v *HistogramVec) sortedValues() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.children))
	for val := range v.children {
		out = append(out, val)
	}
	sort.Strings(out)
	return out
}
