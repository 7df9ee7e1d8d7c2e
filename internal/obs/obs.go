// Package obs is the one metrics registry: a dependency-free
// (standard-library-only) registry that every live counter is published
// into — the naspiped HTTP layer, the job scheduler, the supervision
// state machine, and the telemetry bus (in the daemon or behind a CLI's
// -debug-addr) — so one Prometheus scrape (prom.go) accounts for the
// whole process.
//
// Design constraints, in the same order as the telemetry bus's:
//
//  1. Disabled means free. The nil *Registry is the disabled registry:
//     every constructor on it returns a nil instrument, and every
//     operation on a nil instrument is a no-op that allocates nothing
//     (pinned by an AllocsPerRun test). Call sites therefore carry
//     metric updates unconditionally.
//  2. The hot path is allocation-free. Add/Inc/Set/Observe on a
//     resolved instrument are atomic operations with no allocation and
//     no lock. Resolving a labeled series (Vec.With) takes the family
//     lock and may allocate on first use — resolve once and keep the
//     handle on hot paths.
//  3. Race-clean by construction. Values are atomics (float64 bits via
//     CAS); the registry and each family are guarded by mutexes with
//     O(1)/O(labels) critical sections. Exposition takes a consistent
//     snapshot without stopping writers.
//
// Metric names follow the repo convention naspipe_<plane>_<name>[_unit]
// (plane ∈ {service, sched, supervise, telemetry}); counters end in
// _total and duration histograms in _seconds. A lint-style test in
// internal/service enforces the convention over every name the daemon
// registers. Registration panics on an invalid or duplicate name —
// both are programmer errors, caught by the first test that touches
// the plane.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, in Prometheus TYPE-line vocabulary.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// value is an atomically-updated float64 (stored as bits). Additions go
// through a CAS loop so concurrent Add calls never lose updates.
type value struct{ bits atomic.Uint64 }

func (v *value) add(d float64) {
	for {
		old := v.bits.Load()
		if v.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (v *value) set(f float64) { v.bits.Store(math.Float64bits(f)) }
func (v *value) get() float64  { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing value. The nil *Counter is the
// disabled instrument; every method on it is a nil-safe no-op.
type Counter struct{ v value }

// Add increases the counter. Negative deltas are ignored (counters are
// monotone by contract). Nil-safe, allocation-free.
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	c.v.add(d)
}

// Inc adds one. Nil-safe, allocation-free.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count. Nil-safe (0).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.get()
}

// Gauge is a value that can go up and down. The nil *Gauge is the
// disabled instrument.
type Gauge struct{ v value }

// Set replaces the gauge value. Nil-safe, allocation-free.
func (g *Gauge) Set(f float64) {
	if g == nil {
		return
	}
	g.v.set(f)
}

// Add moves the gauge by d (negative to decrease). Nil-safe,
// allocation-free.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v.add(d)
}

// Inc adds one; Dec subtracts one. Nil-safe.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the gauge. Nil-safe (0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.get()
}

// DefBuckets is the default histogram bucketing: latency-oriented
// upper bounds in seconds, from 1ms to 10s.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets (cumulative at
// exposition time, per-bucket internally) and tracks their sum. The
// nil *Histogram is the disabled instrument. Observe is lock-free and
// allocation-free: a linear scan over the (small, fixed) bound slice,
// one atomic increment, one CAS add.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    value
}

// Observe records one value. Nil-safe, allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.add(v)
}

// Sum returns the sum of all observations. Nil-safe (0).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.get()
}

// series is one (label values → instrument) entry of a family.
type series struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// family is one registered metric name: its metadata plus every labeled
// series under it.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64      // histograms only
	fn     func() float64 // Func metrics: evaluated at scrape time

	mu     sync.Mutex
	series map[string]*series
}

// seriesKey joins label values with a separator no valid UTF-8 label
// value produces, so distinct value tuples never collide.
func seriesKey(vals []string) string { return strings.Join(vals, "\xff") }

// get resolves (creating on first use) the series for the given label
// values.
func (f *family) get(vals []string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := seriesKey(vals)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelVals: append([]string(nil), vals...)}
	switch f.kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		s.hist = &Histogram{
			bounds: f.bounds,
			counts: make([]atomic.Uint64, len(f.bounds)+1),
		}
	}
	f.series[key] = s
	return s
}

// Registry holds every registered metric family. Construct with New;
// the nil *Registry is the disabled registry (all constructors return
// nil instruments, exposition writes nothing). Safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an enabled, empty registry.
func New() *Registry { return &Registry{fams: make(map[string]*family)} }

// register validates and installs a family; panics on an invalid or
// duplicate name (programmer error).
func (r *Registry) register(f *family) *family {
	if !nameRe.MatchString(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !labelRe.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, f.name))
		}
	}
	if f.kind == KindHistogram {
		for i := 1; i < len(f.bounds); i++ {
			if f.bounds[i] <= f.bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing: %v", f.name, f.bounds))
			}
		}
		if len(f.bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one finite bucket", f.name))
		}
	}
	f.series = make(map[string]*series)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.fams[f.name] = f
	return f
}

// Counter registers an unlabeled counter. Nil-safe (nil instrument).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(&family{name: name, help: help, kind: KindCounter})
	return f.get(nil).counter
}

// Gauge registers an unlabeled gauge. Nil-safe (nil instrument).
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(&family{name: name, help: help, kind: KindGauge})
	return f.get(nil).gauge
}

// Histogram registers an unlabeled histogram with the given bucket
// upper bounds (nil selects DefBuckets; +Inf is implicit). Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.register(&family{name: name, help: help, kind: KindHistogram, bounds: bounds})
	return f.get(nil).hist
}

// CounterVec is a counter family partitioned by labels. The nil
// *CounterVec is disabled: With returns a nil *Counter.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family. Nil-safe.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs at least one label (use Counter)", name))
	}
	return &CounterVec{f: r.register(&family{name: name, help: help, kind: KindCounter, labels: labels})}
}

// With resolves the series for the given label values (one per label,
// in registration order). Takes the family lock; resolve once and keep
// the handle on hot paths. Nil-safe (nil instrument).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	v.f.checkArity(values)
	return v.f.get(values).counter
}

// GaugeVec is a gauge family partitioned by labels; nil is disabled.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family. Nil-safe.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVec %q needs at least one label (use Gauge)", name))
	}
	return &GaugeVec{f: r.register(&family{name: name, help: help, kind: KindGauge, labels: labels})}
}

// With resolves the series for the given label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	v.f.checkArity(values)
	return v.f.get(values).gauge
}

func (f *family) checkArity(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values (%v), got %d",
			f.name, len(f.labels), f.labels, len(values)))
	}
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// for state someone else already owns (queue depth, EWMA, live bus
// counters) where mirroring into a stored gauge would race or drift.
// fn is called with no registry locks held. Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, kind: KindGauge, fn: fn})
}

// CounterFunc registers a counter whose value is computed at scrape
// time; fn must be monotone (the caller's contract). Nil-safe.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, kind: KindCounter, fn: fn})
}

// FamilyInfo is one registered family's metadata, for the naming-
// convention lint test and the exposition tests.
type FamilyInfo struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []string
}

// Families lists every registered family's metadata, sorted by name.
// Nil-safe (nil).
func (r *Registry) Families() []FamilyInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]FamilyInfo, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, FamilyInfo{Name: f.name, Help: f.help, Kind: f.kind, Labels: f.labels})
	}
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
