package obs

import (
	"math"
	"sync"
	"testing"
)

// TestDisabledAllocationFree pins constraint 1 of the package contract:
// every operation through the nil registry and nil instruments is
// allocation-free, so disabled metrics cost call sites nothing.
func TestDisabledAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("naspipe_test_total", "x")
	g := r.Gauge("naspipe_test_gauge", "x")
	h := r.Histogram("naspipe_test_seconds", "x", nil)
	cv := r.CounterVec("naspipe_test_vec_total", "x", "tenant")
	gv := r.GaugeVec("naspipe_test_vec_gauge", "x", "tenant")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		g.Dec()
		h.Observe(0.017)
		cv.With("t1").Inc()
		gv.With("t1").Set(9)
		r.GaugeFunc("naspipe_test_fn", "x", func() float64 { return 1 })
	})
	if allocs != 0 {
		t.Fatalf("disabled registry allocated: %v allocs/op", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("disabled instruments retained state")
	}
	if h.Quantile(0.5) != -1 {
		t.Fatalf("nil histogram quantile = %v, want -1", h.Quantile(0.5))
	}
}

// TestEnabledHotPathAllocationFree pins constraint 2: updates through
// resolved handles on an enabled registry do not allocate.
func TestEnabledHotPathAllocationFree(t *testing.T) {
	r := New()
	c := r.Counter("naspipe_test_total", "x")
	g := r.Gauge("naspipe_test_gauge", "x")
	h := r.Histogram("naspipe_test_seconds", "x", nil)
	tc := r.CounterVec("naspipe_test_vec_total", "x", "tenant").With("t1")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(0.5)
		h.Observe(0.017)
		tc.Add(1)
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocated: %v allocs/op", allocs)
	}
	if c.Value() < 1000 {
		t.Fatalf("counter did not record: %v", c.Value())
	}
}

func TestCounterMonotone(t *testing.T) {
	r := New()
	c := r.Counter("naspipe_test_total", "x")
	c.Add(3)
	c.Add(-5) // ignored: counters are monotone by contract
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %v, want 4", got)
	}
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("naspipe_test_gauge", "x")
	g.Set(10)
	g.Add(-3.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 6.5 {
		t.Fatalf("gauge = %v, want 6.5", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("naspipe_test_seconds", "x", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106.7 {
		t.Fatalf("sum = %v, want 106.7", got)
	}
	// ranks: p50 → rank 3 → bucket le=2; p99 → rank 5 → +Inf bucket,
	// clamped to the last finite bound.
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("p99 = %v, want 4 (clamped)", got)
	}
	if got := h.Quantile(0.01); got != 1 {
		t.Fatalf("p1 = %v, want 1", got)
	}
}

func TestHistogramExactBoundGoesLow(t *testing.T) {
	r := New()
	h := r.Histogram("naspipe_test_seconds", "x", []float64{1, 2})
	h.Observe(1) // le bounds are inclusive: lands in the le=1 bucket
	if got := h.Quantile(1); got != 1 {
		t.Fatalf("observation on bound landed at %v, want 1", got)
	}
}

func TestVecSeriesIsolation(t *testing.T) {
	r := New()
	v := r.CounterVec("naspipe_test_total", "x", "tenant", "state")
	v.With("a", "done").Add(2)
	v.With("b", "done").Add(5)
	if v.With("a", "done") != v.With("a", "done") {
		t.Fatal("same label values resolved different series")
	}
	if got := v.With("a", "done").Value(); got != 2 {
		t.Fatalf("series a = %v, want 2", got)
	}
	if got := v.With("b", "done").Value(); got != 5 {
		t.Fatalf("series b = %v, want 5", got)
	}
}

func TestRegisterPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.Counter("bad-name", "x") }},
		{"invalid label", func(r *Registry) { r.CounterVec("naspipe_x_total", "x", "bad-label") }},
		{"reserved label", func(r *Registry) { r.CounterVec("naspipe_x_total", "x", "__name__") }},
		{"duplicate", func(r *Registry) {
			r.Counter("naspipe_x_total", "x")
			r.Counter("naspipe_x_total", "x")
		}},
		{"non-monotone buckets", func(r *Registry) {
			r.Histogram("naspipe_x_seconds", "x", []float64{1, 1})
		}},
		{"empty buckets", func(r *Registry) {
			r.Histogram("naspipe_x_seconds", "x", []float64{})
		}},
		{"wrong arity", func(r *Registry) {
			r.CounterVec("naspipe_x_total", "x", "a", "b").With("only-one")
		}},
		{"unlabeled vec", func(r *Registry) { r.CounterVec("naspipe_x_total", "x") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn(New())
		})
	}
}

// TestConcurrentUpdates exercises the CAS paths under -race and checks
// no increments are lost.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("naspipe_test_total", "x")
	g := r.Gauge("naspipe_test_gauge", "x")
	h := r.Histogram("naspipe_test_seconds", "x", nil)
	v := r.CounterVec("naspipe_test_vec_total", "x", "tenant")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := string(rune('a' + w%2))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.01)
				v.With(tenant).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter lost updates: %v", got)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge lost updates: %v", got)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram lost updates: %v", got)
	}
	if got := v.With("a").Value() + v.With("b").Value(); got != workers*per {
		t.Fatalf("vec lost updates: %v", got)
	}
}

func TestFuncMetricsAndFamilies(t *testing.T) {
	r := New()
	r.GaugeFunc("naspipe_test_depth", "queue depth", func() float64 { return 7 })
	r.CounterFunc("naspipe_test_emitted_total", "events", func() float64 { return 41 })
	r.Counter("naspipe_test_a_total", "a")
	var names []string
	for _, f := range r.Families() {
		names = append(names, f.Name)
	}
	want := []string{"naspipe_test_a_total", "naspipe_test_depth", "naspipe_test_emitted_total"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v (sorted)", names, want)
		}
	}
	if infs := r.Families(); infs[1].Kind != KindGauge {
		t.Fatalf("func gauge family kind = %v", infs[1].Kind)
	}
}

func TestNaNAndInfObservations(t *testing.T) {
	r := New()
	h := r.Histogram("naspipe_test_seconds", "x", []float64{1})
	h.Observe(math.Inf(1))
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d, want 1 (+Inf lands in overflow bucket)", got)
	}
	if got := h.Quantile(1); got != 1 {
		t.Fatalf("quantile = %v, want clamp to last finite bound", got)
	}
}

// Quantile estimates the p-quantile (0 < p <= 1) as the upper bound of
// the bucket the quantile falls in — the standard fixed-bucket
// estimator, biased high by at most one bucket width. Observations in
// the +Inf bucket report the largest finite bound. Returns -1 with no
// observations. Nil-safe (-1).
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return -1
	}
	total := h.Count()
	if total == 0 {
		return -1
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] // +Inf bucket: clamp to last finite bound
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Count returns the total number of observations. Nil-safe (0).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
