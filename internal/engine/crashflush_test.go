package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/telemetry"
)

// countCompletes tallies captured OpTaskComplete events per stage.
func countCompletes(evs []telemetry.Event, stages int) []int64 {
	out := make([]int64, stages)
	for _, ev := range evs {
		if ev.Op == telemetry.OpTaskComplete && int(ev.Stage) < stages {
			out[ev.Stage]++
		}
	}
	return out
}

// TestCrashUnwindFlushesBatchers is the satellite regression test for
// the crash-unwind audit: when a fault.CrashError unwinds the stage
// goroutines, every stage's telemetry.Batcher must flush, so the
// captured stream loses nothing — the fault timeline a replay tool
// reconstructs would otherwise silently miss the last <=64 events per
// stage, exactly the ones leading up to the crash.
func TestCrashUnwindFlushesBatchers(t *testing.T) {
	cfg := ccCfg(4, true)
	cfg.Faults = &fault.Plan{
		Seed:      1,
		CrashTask: &fault.TaskRef{Stage: 2, Seq: 9, Kind: fault.KindForward},
	}
	bus := telemetry.NewBus(0)
	cfg.Telemetry = bus

	res, err := engine.RunConcurrent(context.Background(), cfg)
	var ce *fault.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CrashError, got %v", err)
	}

	snap := bus.Snapshot()
	if snap.Dropped != 0 {
		t.Fatalf("ring dropped %d events; the count comparison needs a lossless capture", snap.Dropped)
	}
	// Emitted counts every event that reached the bus; Events is what the
	// ring captured. With zero drops they must agree — any gap is an
	// event still sitting in a stage's batcher after unwind.
	if got := uint64(len(bus.Events())); got != snap.Emitted {
		t.Fatalf("captured %d events, emitted %d: batched events lost on crash unwind", got, snap.Emitted)
	}

	evs := bus.Events()
	// Per-stage cross-check against the engine's own completion
	// accounting: Contention[k].Tasks increments once per completed task,
	// in lockstep with the batched OpTaskComplete emission.
	completes := countCompletes(evs, len(res.Contention))
	for k, cont := range res.Contention {
		if completes[k] != cont.Tasks {
			t.Errorf("stage %d: %d completes captured, engine completed %d tasks",
				k, completes[k], cont.Tasks)
		}
	}
	// The crash itself must be on the stream (it bypasses the batcher so
	// the timeline records it even if the goroutine never flushed again).
	found := false
	for _, ev := range evs {
		if ev.Op == telemetry.OpFaultCrash && int(ev.Stage) == ce.Stage && int(ev.Subnet) == ce.Seq {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("OpFaultCrash for %v not captured", ce)
	}
}

// TestWedgeFlushesBatcher: a wedged stage hangs until cancellation, so
// its batcher must flush before the hang — mid-stall observers (the
// watchdog's debug snapshot) need the events leading up to the wedge.
// Forwards complete in sequence order on a stage, so once the wedge
// event is visible the wedged stage's forward-complete count must reach
// the wedge sequence without waiting for cancellation.
func TestWedgeFlushesBatcher(t *testing.T) {
	const wedgeStage, wedgeSeq = 1, 6
	cfg := ccCfg(2, false)
	cfg.Faults = &fault.Plan{
		Seed:      3,
		WedgeTask: &fault.TaskRef{Stage: wedgeStage, Seq: wedgeSeq, Kind: fault.KindForward},
	}
	bus := telemetry.NewBus(0)
	cfg.Telemetry = bus

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := engine.RunConcurrent(ctx, cfg)
		done <- err
	}()

	deadline := time.After(10 * time.Second)
	for {
		var wedged bool
		var fwdCompletes int
		for _, ev := range bus.Events() {
			switch {
			case ev.Op == telemetry.OpFaultWedge && int(ev.Stage) == wedgeStage:
				wedged = true
			case ev.Op == telemetry.OpTaskComplete && int(ev.Stage) == wedgeStage &&
				ev.Kind == telemetry.KindForward:
				fwdCompletes++
			}
		}
		if wedged && fwdCompletes >= wedgeSeq {
			break
		}
		select {
		case <-deadline:
			cancel()
			t.Fatalf("wedged=%v with %d/%d forward completes visible mid-stall: batcher not flushed before hang",
				wedged, fwdCompletes, wedgeSeq)
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("wedged run finished without error despite cancellation")
	}
}
