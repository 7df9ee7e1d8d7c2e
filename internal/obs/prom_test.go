package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestGoldenExposition pins the exact exposition bytes for a registry
// covering all instrument shapes: deterministic family and series
// ordering, HELP/TYPE lines, label escaping, cumulative histogram
// buckets with +Inf, _sum/_count. Any formatting drift fails here.
func TestGoldenExposition(t *testing.T) {
	r := New()
	r.Counter("naspipe_b_total", "plain counter").Add(3)
	v := r.CounterVec("naspipe_a_total", `escapes \ " and newline`, "tenant")
	v.With("z-tenant").Add(1)
	v.With("a\"quote\\slash\nnewline").Add(2)
	r.Gauge("naspipe_c_depth", "a gauge").Set(2.5)
	h := r.Histogram("naspipe_d_seconds", "a histogram", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(99)
	r.GaugeFunc("naspipe_e_live", "func gauge", func() float64 { return 6 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP naspipe_a_total escapes \\ " and newline
# TYPE naspipe_a_total counter
naspipe_a_total{tenant="a\"quote\\slash\nnewline"} 2
naspipe_a_total{tenant="z-tenant"} 1
# HELP naspipe_b_total plain counter
# TYPE naspipe_b_total counter
naspipe_b_total 3
# HELP naspipe_c_depth a gauge
# TYPE naspipe_c_depth gauge
naspipe_c_depth 2.5
# HELP naspipe_d_seconds a histogram
# TYPE naspipe_d_seconds histogram
naspipe_d_seconds_bucket{le="0.5"} 1
naspipe_d_seconds_bucket{le="1"} 2
naspipe_d_seconds_bucket{le="+Inf"} 3
naspipe_d_seconds_sum 100
naspipe_d_seconds_count 3
# HELP naspipe_e_live func gauge
# TYPE naspipe_e_live gauge
naspipe_e_live 6
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionDeterministic: two scrapes of an unchanged registry are
// byte-identical (map iteration order must not leak through).
func TestExpositionDeterministic(t *testing.T) {
	r := New()
	v := r.CounterVec("naspipe_jobs_total", "jobs", "tenant", "state")
	for _, tn := range []string{"c", "a", "b"} {
		for _, st := range []string{"done", "failed"} {
			v.With(tn, st).Inc()
		}
	}
	r.Gauge("naspipe_depth", "d").Set(1)
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("non-deterministic exposition:\n%s\nvs\n%s", a.String(), b.String())
	}
	// series within the family sort by label values
	i1 := strings.Index(a.String(), `tenant="a"`)
	i2 := strings.Index(a.String(), `tenant="b"`)
	i3 := strings.Index(a.String(), `tenant="c"`)
	if !(i1 < i2 && i2 < i3) {
		t.Fatalf("series not sorted by label values:\n%s", a.String())
	}
}

// TestBucketMonotonicity: cumulative bucket counts never decrease and
// the +Inf bucket equals _count.
func TestBucketMonotonicity(t *testing.T) {
	r := New()
	h := r.Histogram("naspipe_lat_seconds", "x", DefBuckets)
	for i := 0; i < 500; i++ {
		h.Observe(float64(i) * 0.004)
	}
	h.Observe(math.Inf(1))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	var inf, count float64
	buckets := 0
	for _, s := range samples {
		switch s.Name {
		case "naspipe_lat_seconds_bucket":
			buckets++
			if s.Value < prev {
				t.Fatalf("bucket le=%s value %v < previous %v", s.Labels["le"], s.Value, prev)
			}
			prev = s.Value
			if s.Labels["le"] == "+Inf" {
				inf = s.Value
			}
		case "naspipe_lat_seconds_count":
			count = s.Value
		}
	}
	if buckets != len(DefBuckets)+1 {
		t.Fatalf("got %d buckets, want %d", buckets, len(DefBuckets)+1)
	}
	if inf != count || count != 501 {
		t.Fatalf("+Inf bucket %v, _count %v, want both 501", inf, count)
	}
}

// TestParseRoundTrip: exposition → ParseText recovers names, labels
// (including escapes) and values.
func TestParseRoundTrip(t *testing.T) {
	r := New()
	r.CounterVec("naspipe_x_total", "x", "job").With(`j"1\a` + "\n").Add(4)
	r.Gauge("naspipe_y", "y").Set(0)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "naspipe_x_total" {
			found = true
			if got := s.Labels["job"]; got != `j"1\a`+"\n" {
				t.Fatalf("label round-trip = %q", got)
			}
			if s.Value != 4 {
				t.Fatalf("value = %v, want 4", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("sample not found after round trip")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"naspipe_x_total",            // no value
		`naspipe_x_total{a="b} 1`,    // unterminated value quote inside braces is tolerated only if } exists
		`naspipe_x_total{a=b} 1`,     // unquoted label value
		"naspipe_x_total notanumber", // bad value
		`naspipe_x_total{a="b" 1`,    // unterminated label set
	} {
		if _, err := ParseText(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", bad)
		}
	}
	// comments and blank lines are fine
	samples, err := ParseText(strings.NewReader("# HELP x y\n\nnaspipe_x_total 2\n"))
	if err != nil || len(samples) != 1 || samples[0].Value != 2 {
		t.Fatalf("samples=%v err=%v", samples, err)
	}
	// +Inf / -Inf values parse
	samples, err = ParseText(strings.NewReader("naspipe_x +Inf\nnaspipe_y -Inf\n"))
	if err != nil || !math.IsInf(samples[0].Value, 1) || !math.IsInf(samples[1].Value, -1) {
		t.Fatalf("inf parse: samples=%v err=%v", samples, err)
	}
}

// TestHandler: the HTTP handler serves the exposition content type; the
// nil registry serves an empty, valid body.
func TestHandler(t *testing.T) {
	r := New()
	r.Counter("naspipe_x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "naspipe_x_total 1") {
		t.Fatalf("body = %q", rec.Body.String())
	}

	var nilReg *Registry
	rec = httptest.NewRecorder()
	nilReg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Body.Len() != 0 {
		t.Fatalf("nil registry body = %q, want empty", rec.Body.String())
	}
	if _, err := ParseText(strings.NewReader(rec.Body.String())); err != nil {
		t.Fatal(err)
	}
}
