package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"naspipe/internal/obs"
)

// scrape GETs /metrics on addr and indexes the samples by name.
func scrape(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Name] = s.Value
	}
	return out
}

// serveBus serves the debug mux with bus's counters registered, the way
// a CLI's -debug-addr does.
func serveBus(t *testing.T, bus *Bus) string {
	t.Helper()
	reg := obs.New()
	Register(reg, bus.Counters)
	addr, stop, err := Serve("127.0.0.1:0", NewDebugMux(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return addr
}

// TestRegisterNamesEveryCounterOnce: every live counter the bus keeps is
// exactly one family on /metrics, and each reads what the bus counted.
func TestRegisterNamesEveryCounterOnce(t *testing.T) {
	b := NewBus(4)
	for op := Op(0); op < opCount; op++ {
		for i := 0; i <= int(op)%3; i++ {
			b.Emit(Event{Op: op, Arg: 2})
		}
	}
	b.EmitBatch([]Event{{Op: OpTaskComplete}, {Op: OpCacheStall, Phase: PhaseEnd, Arg: 5e8}})

	reg := obs.New()
	Register(reg, b.Counters)
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	if fams := reg.Families(); len(fams) != int(numCounters) || len(samples) != int(numCounters) {
		t.Fatalf("%d families, %d samples; want one of each per counter (%d)", len(fams), len(samples), numCounters)
	}
	got := make(map[string]float64)
	for _, s := range samples {
		if _, dup := got[s.Name]; dup {
			t.Fatalf("%s exposed twice", s.Name)
		}
		got[s.Name] = s.Value
	}
	want := map[string]float64{
		"naspipe_telemetry_events_emitted_total":      float64(b.Snapshot().Emitted),
		"naspipe_telemetry_events_dropped_total":      float64(b.Dropped()),
		"naspipe_telemetry_batch_flushes_total":       1,
		"naspipe_telemetry_cache_stall_seconds_total": 1e-9 * float64(b.Snapshot().StallNs),
	}
	for op := Op(0); op < opCount; op++ {
		want["naspipe_telemetry_"+strings.ReplaceAll(op.String(), "-", "_")+"_total"] = float64(b.Count(op))
	}
	// Two cache-hit events of two layers each; two stall instants of 2 ns
	// plus the batched 0.5 s span end.
	if b.Dropped() == 0 || b.Count(OpCacheHit) != 4 || b.Snapshot().StallNs != 5e8+4 {
		t.Fatalf("the stream does not exercise drops, layer counts and stall time: %+v", b.Snapshot())
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, v)
		}
	}
}

// TestServeDebugEndpoints: a debug listener serves pprof and /metrics
// only: /debug/telemetry and /debug/vars are not found.
func TestServeDebugEndpoints(t *testing.T) {
	b := NewBus(16)
	b.Emit(Event{Op: OpTaskStart, Phase: PhaseBegin, Subnet: 0, Kind: KindForward})
	addr := serveBus(t, b)
	for path, want := range map[string]int{
		"/metrics": http.StatusOK, "/debug/pprof/": http.StatusOK, "/debug/pprof/cmdline": http.StatusOK,
		"/debug/telemetry": http.StatusNotFound, "/debug/vars": http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	if got := scrape(t, addr)["naspipe_telemetry_task_start_total"]; got != 1 {
		t.Fatalf("task_start_total over HTTP = %v, want 1", got)
	}
}

// TestServeDebugPerServer: two live debug servers in one process each
// report their own bus.
func TestServeDebugPerServer(t *testing.T) {
	b1 := NewBus(16)
	b1.Emit(Event{Op: OpTaskStart})
	addr1 := serveBus(t, b1)

	b2 := NewBus(16)
	for i := 0; i < 3; i++ {
		b2.Emit(Event{Op: OpTaskStart})
	}
	addr2 := serveBus(t, b2)

	if got := scrape(t, addr1)["naspipe_telemetry_task_start_total"]; got != 1 {
		t.Fatalf("server 1 reports task_start_total=%v, want 1 (its own bus)", got)
	}
	if got := scrape(t, addr2)["naspipe_telemetry_task_start_total"]; got != 3 {
		t.Fatalf("server 2 reports task_start_total=%v, want 3 (its own bus)", got)
	}
}

// TestNewDebugMuxSnapshotClosure: a daemon-style read closure summing
// several buses' Counters is evaluated per scrape.
func TestNewDebugMuxSnapshotClosure(t *testing.T) {
	b1, b2 := NewBus(16), NewBus(16)
	reg := obs.New()
	Register(reg, func() Counters {
		c := b1.Counters()
		for i, v := range b2.Counters() {
			c[i] += v
		}
		return c
	})
	srv := httptest.NewServer(NewDebugMux(reg))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	if got := scrape(t, addr)["naspipe_telemetry_task_complete_total"]; got != 0 {
		t.Fatalf("task_complete_total before any event = %v", got)
	}
	b1.Emit(Event{Op: OpTaskComplete})
	b2.Emit(Event{Op: OpTaskComplete})
	b2.Emit(Event{Op: OpFaultCrash})
	m := scrape(t, addr)
	if m["naspipe_telemetry_task_complete_total"] != 2 || m["naspipe_telemetry_fault_crash_total"] != 1 ||
		m["naspipe_telemetry_events_emitted_total"] != 3 {
		t.Fatalf("summed scrape = %v, want task_complete 2, fault_crash 1, events_emitted 3", m)
	}
}

// TestEmitBatchCountsFlushes: the bus counts bulk flushes so /metrics
// can expose Batcher flush rates.
func TestEmitBatchCountsFlushes(t *testing.T) {
	b := NewBus(16)
	b.EmitBatch([]Event{{Op: OpTaskStart}, {Op: OpTaskComplete}})
	b.EmitBatch(nil) // empty batches are not flushes
	b.EmitBatch([]Event{{Op: OpTaskComplete}})
	if got := b.Snapshot().BatchFlushes; got != 2 {
		t.Fatalf("BatchFlushes = %d, want 2", got)
	}
	var nilBus *Bus
	nilBus.EmitBatch([]Event{{Op: OpTaskStart}})
	if nilBus.Snapshot().BatchFlushes != 0 {
		t.Fatal("nil bus counted a flush")
	}
}
