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

	// The same census drives the spans the caller rebuilds from its bus
	// (the figure timelines); the engine fills no Result.Spans itself.
	if res.Spans != nil {
		t.Fatalf("the goroutine plane filled %d Result.Spans", len(res.Spans))
	}
	spans := engine.SpansFromEvents(bus.Events())
	if want := 2 * n * d; len(spans) != want {
		t.Fatalf("reconstructed %d spans, want %d", len(spans), want)
	}
	for _, s := range spans {
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

// TestConcurrentRecordTraceLeavesSpansNil: RecordTrace records the
// access trace and nothing else. With no bus of the caller's, a traced
// run is still verified against the sequential reference, but the
// engine builds no bus of its own, so Result.Spans stays nil.
func TestConcurrentRecordTraceLeavesSpansNil(t *testing.T) {
	res, err := engine.RunConcurrent(context.Background(), ccCfg(4, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.ObservedTrace == nil || res.Trace == nil {
		t.Fatal("a traced run returned no traces")
	}
	if res.Spans != nil {
		t.Fatalf("a traced run with no bus produced %d spans", len(res.Spans))
	}
}

// TestConcurrentTracedAllocationCeiling pins what a traced run with no
// bus allocates: 455 per run (25.3 per subnet) measured, ceiling about
// 1.15× that. A bus the engine builds for itself, and the span rebuild
// read back from it, cost 633 and fail it.
func TestConcurrentTracedAllocationCeiling(t *testing.T) {
	const ceiling = 520
	cfg := ccCfg(4, false)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("a traced run with no bus made %.0f allocations, ceiling %d", allocs, ceiling)
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

// TestSchedDelayReportedOncePerEpisode pins the OpSchedDelay
// de-duplication in the stage machine's pick: a stage reports a held-back
// forward queue once per (blocked head, blocking writer) pair, again only
// when either changes or a forward was admitted in between. On one fixed
// stream the simulator's count is exact, so reporting every blocked pick,
// or only picks where both the head and the writer changed, moves it.
func TestSchedDelayReportedOncePerEpisode(t *testing.T) {
	for _, tc := range []struct {
		policy string
		want   int
	}{
		{"naspipe", 94},             // Algorithm 2 reorders past a blocked head
		{"naspipe-noscheduler", 51}, // FIFO: the head waits out one writer after another
	} {
		cfg := ccCfg(4, false)
		cfg.NumSubnets, cfg.RecordTrace = 48, false
		bus := telemetry.NewBus(0)
		cfg.Telemetry = bus
		run(t, tc.policy, cfg)
		type pair struct{ head, writer int64 }
		last := map[int32]pair{} // per stage, the episode reported last
		delays := 0
		for _, ev := range bus.Events() {
			switch {
			case ev.Op == telemetry.OpSchedAdmit && ev.Kind == telemetry.KindForward:
				delete(last, ev.Stage)
			case ev.Op == telemetry.OpSchedDelay:
				delays++
				p := pair{int64(ev.Subnet), ev.Arg}
				if prev, ok := last[ev.Stage]; ok && prev == p {
					t.Errorf("%s: stage %d reported head %d blocked by %d twice in a row", tc.policy, ev.Stage, p.head, p.writer)
				}
				last[ev.Stage] = p
			}
		}
		if delays != tc.want {
			t.Errorf("%s: %d OpSchedDelay events, want %d", tc.policy, delays, tc.want)
		}
	}
}
