package engine_test

import (
	"bytes"
	"context"
	"testing"

	"naspipe/internal/engine"
	"naspipe/internal/telemetry"
)

// TestConcurrentTelemetryChromeTraceCanonicalCounts is the telemetry
// plane's acceptance check: a concurrent run publishing to a bus exports
// a Chrome trace that validates, with exactly the canonical event
// census — one complete span per task slice (2·n·D: every subnet runs
// one forward and one backward on every stage; this plane never splits
// spans) and one flow arrow per cross-stage hand-off (2·n·(D−1)).
func TestConcurrentTelemetryChromeTraceCanonicalCounts(t *testing.T) {
	const n, d = 18, 4
	cfg := ccMemCfg(d, true)
	cfg.NumSubnets = n
	bus := telemetry.NewBus(0)
	cfg.Telemetry = bus
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d/%d", res.Completed, n)
	}
	if dropped := bus.Dropped(); dropped != 0 {
		t.Fatalf("bus dropped %d events at default capacity", dropped)
	}

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, bus.Events()); err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	if want := 2 * n * d; st.TaskX != want {
		t.Fatalf("trace has %d task slices, want 2·n·D = %d", st.TaskX, want)
	}
	if want := 2 * n * (d - 1); st.FlowBegin != want || st.FlowEnd != want {
		t.Fatalf("flow arrows %d/%d, want 2·n·(D−1) = %d both ways", st.FlowBegin, st.FlowEnd, want)
	}
	if st.Stages != d {
		t.Fatalf("trace names %d stages, want %d", st.Stages, d)
	}

	// The same census drives Result.Spans (the figure timelines).
	if want := 2 * n * d; len(res.Spans) != want {
		t.Fatalf("reconstructed %d spans, want %d", len(res.Spans), want)
	}
	for _, s := range res.Spans {
		if s.EndMs <= s.StartMs {
			t.Fatalf("span %+v is empty or inverted", s)
		}
	}

	// Live counters agree with the stream.
	snap := bus.Snapshot()
	if snap.Started != int64(2*n*d) || snap.Completed != int64(2*n*d) {
		t.Fatalf("snapshot counted %d/%d task starts/completions, want %d",
			snap.Started, snap.Completed, 2*n*d)
	}
	if snap.CacheHits+snap.CacheMisses == 0 {
		t.Fatal("memory plane enabled but snapshot saw no cache traffic")
	}
}

// TestConcurrentRecordTracePopulatesSpansWithoutBus: RecordTrace alone
// (no caller-supplied bus) still yields Result.Spans via a private bus,
// so figure-cc renders without telemetry wiring at the call site.
func TestConcurrentRecordTracePopulatesSpansWithoutBus(t *testing.T) {
	cfg := ccCfg(4, false)
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * cfg.NumSubnets * 4; len(res.Spans) != want {
		t.Fatalf("RecordTrace produced %d spans, want %d", len(res.Spans), want)
	}
}

// TestConcurrentTelemetryDisabledEmitsNothing: with no bus and no trace
// request the run must not fabricate spans (the disabled path stays
// zero-cost; bench_test.go guards the cost side).
func TestConcurrentTelemetryDisabledEmitsNothing(t *testing.T) {
	cfg := ccCfg(2, false)
	cfg.RecordTrace = false
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans != nil {
		t.Fatalf("disabled telemetry produced %d spans", len(res.Spans))
	}
}

// TestSchedEventsOneLayoutOnBothPlanes runs one stream on both planes
// and checks that the scheduler ops mean the same thing on each, because
// one stage machine emits them: OpTaskAdmit once per task as its input
// lands, OpSchedAdmit once per task as its stage admits it (Arg = its
// position in the stage's queue), and OpSchedDelay for a held-back
// forward queue (Subnet = the head, Arg = the earlier subnet blocking it
// or -1) — every one naming a real subnet.
func TestSchedEventsOneLayoutOnBothPlanes(t *testing.T) {
	const n, d, window = 18, 4, 12
	cfg := ccCfg(d, false)
	cfg.NumSubnets, cfg.InflightLimit = n, window
	des := telemetry.NewBus(0)
	cfg.Telemetry = des
	run(t, "naspipe", cfg)
	cc := telemetry.NewBus(0)
	cfg.Telemetry = cc
	if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	for plane, bus := range map[string]*telemetry.Bus{"simulator": des, "goroutines": cc} {
		type task struct {
			stage, subnet int32
			kind          int8
		}
		arrived, admitted := map[task]int{}, map[task]int{}
		delays := 0
		for _, ev := range bus.Events() {
			tk := task{ev.Stage, ev.Subnet, ev.Kind}
			switch ev.Op {
			case telemetry.OpTaskAdmit:
				arrived[tk]++
			case telemetry.OpSchedAdmit:
				admitted[tk]++
				if ev.Arg < 0 || ev.Arg >= window {
					t.Errorf("%s: admit of %+v at queue index %d, outside the %d-subnet window", plane, tk, ev.Arg, window)
				}
			case telemetry.OpSchedDelay:
				delays++
				if ev.Kind != telemetry.KindForward || ev.Arg >= int64(ev.Subnet) || ev.Arg < -1 {
					t.Errorf("%s: delay of %+v blamed on subnet %d, not an earlier writer", plane, tk, ev.Arg)
				}
			default:
				continue
			}
			if ev.Subnet < 0 || ev.Subnet >= n {
				t.Errorf("%s: %s event names subnet %d", plane, ev.Op, ev.Subnet)
			}
		}
		for _, m := range []map[task]int{arrived, admitted} {
			if len(m) != 2*n*d {
				t.Errorf("%s: %d distinct tasks, want 2·n·D = %d", plane, len(m), 2*n*d)
			}
			for tk, c := range m {
				if c != 1 {
					t.Errorf("%s: task %+v reported %d times", plane, tk, c)
				}
			}
		}
		if plane == "simulator" && delays == 0 {
			t.Errorf("%s: a dependency-dense stream held no forward back", plane)
		}
	}
}

// TestSimulatedTelemetryChromeTraceValidates: the discrete-event engine
// publishes the same taxonomy (in simulated nanoseconds) — the export
// must validate, cover every stage, and carry a balanced flow census.
func TestSimulatedTelemetryChromeTraceValidates(t *testing.T) {
	const n, d = 18, 4
	cfg := ccCfg(d, false)
	cfg.NumSubnets = n
	bus := telemetry.NewBus(0)
	cfg.Telemetry = bus
	res := run(t, "naspipe", cfg)
	if res.Failed {
		t.Fatalf("simulated run failed: %s", res.FailReason)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, bus.Events()); err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	if st.Stages != d {
		t.Fatalf("trace names %d stages, want %d", st.Stages, d)
	}
	// The simulator splits spans at preemption boundaries, so the slice
	// count is at least one per task, and flows stay balanced and exact.
	if st.TaskX < 2*n*d {
		t.Fatalf("trace has %d task slices, want >= 2·n·D = %d", st.TaskX, 2*n*d)
	}
	if want := 2 * n * (d - 1); st.FlowBegin != want || st.FlowEnd != want {
		t.Fatalf("flow arrows %d/%d, want %d both ways", st.FlowBegin, st.FlowEnd, want)
	}
	snap := bus.Snapshot()
	if snap.Completed != int64(2*n*d) {
		t.Fatalf("snapshot counted %d completions, want %d", snap.Completed, 2*n*d)
	}
	if snap.Preempted == 0 {
		t.Fatal("CSP preemption never fired on a dependency-dense simulated run")
	}
}
