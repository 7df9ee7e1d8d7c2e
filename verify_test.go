package naspipe_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"naspipe"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/telemetry"
	"naspipe/internal/trace"
)

// verifySpec is a small verified job: Verify asks RunJob (and the fleet)
// to hold the completed weights to the sequential reference.
func verifySpec() naspipe.JobSpec {
	return naspipe.JobSpec{
		Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3,
		Executor: "concurrent", GPUs: 4, Subnets: 12, Seed: 7,
		Train:  &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05},
		Verify: true,
	}
}

// sequentialChecksum is train.Sequential's checksum over the spec's
// whole stream.
func sequentialChecksum(t *testing.T, spec naspipe.JobSpec) uint64 {
	t.Helper()
	tc, _ := spec.TrainConfig()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	return naspipe.TrainSequential(tc, cfg.ResolveSubnets()).Checksum
}

// TestRunJobVerifies pins Verify on the one restart driver: a completed
// job comes back holding the sequential reference's checksum —
// unsupervised, supervised through a pinned crash, and resumed after one.
func TestRunJobVerifies(t *testing.T) {
	want := sequentialChecksum(t, verifySpec())
	crashing := func(t *testing.T) naspipe.JobSpec {
		spec := verifySpec()
		spec.Faults = "seed=7,crashat=2:5:F" // incarnation 0 only
		spec.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
		return spec
	}
	ctx := context.Background()
	check := func(t *testing.T, res naspipe.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Checksum != want {
			t.Fatalf("RunJob returned checksum %016x, sequential reference %016x", res.Checksum, want)
		}
	}
	t.Run("unsupervised", func(t *testing.T) {
		res, _, err := naspipe.RunJob(ctx, verifySpec(), false, naspipe.SuperviseConfig{})
		check(t, res, err)
	})
	t.Run("supervised", func(t *testing.T) {
		spec := crashing(t)
		spec.Supervise = &naspipe.SuperviseSpec{
			Backoff: naspipe.Duration(100 * time.Microsecond), BackoffMax: naspipe.Duration(time.Millisecond),
		}
		res, rep, err := naspipe.RunJob(ctx, spec, false, naspipe.SuperviseConfig{})
		check(t, res, err)
		if rep.Restarts != 1 {
			t.Fatalf("%d restarts, want the pinned crash's 1", rep.Restarts)
		}
	})
	t.Run("resumed", func(t *testing.T) {
		spec := crashing(t)
		var crash *fault.CrashError
		if _, _, err := naspipe.RunJob(ctx, spec, false, naspipe.SuperviseConfig{}); !errors.As(err, &crash) {
			t.Fatalf("first incarnation returned %v, want the pinned crash", err)
		}
		res, _, err := naspipe.RunJob(ctx, spec, true, naspipe.SuperviseConfig{})
		check(t, res, err)
	})
}

// TestRunJobHooksBusCarriesEveryTask: hooks.Telemetry is the run's one
// bus on both paths. Unsupervised, it carries every task's start and
// completion once; supervised through a pinned crash, it is shared by
// both incarnations, and the spans the caller rebuilds from it cover
// every task of the stream. The engine fills no Result.Spans on either.
func TestRunJobHooksBusCarriesEveryTask(t *testing.T) {
	spec := verifySpec()
	tasks := 2 * spec.Subnets * spec.GPUs
	t.Run("unsupervised", func(t *testing.T) {
		bus := telemetry.NewBus(0)
		res, _, err := naspipe.RunJob(context.Background(), spec, false, naspipe.SuperviseConfig{Telemetry: bus})
		if err != nil {
			t.Fatal(err)
		}
		if snap := bus.Snapshot(); snap.Started != int64(tasks) || snap.Completed != int64(tasks) {
			t.Fatalf("bus counted %d/%d task starts/completions, want %d", snap.Started, snap.Completed, tasks)
		}
		if spans := engine.SpansFromEvents(bus.Events()); len(spans) != tasks || res.Spans != nil {
			t.Fatalf("bus rebuilt %d spans (want %d), Result.Spans %d", len(spans), tasks, len(res.Spans))
		}
	})
	t.Run("supervised", func(t *testing.T) {
		spec := spec
		spec.Faults = "seed=7,crashat=2:5:F" // incarnation 0 only
		spec.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
		spec.Supervise = &naspipe.SuperviseSpec{
			Backoff: naspipe.Duration(100 * time.Microsecond), BackoffMax: naspipe.Duration(time.Millisecond),
		}
		bus := telemetry.NewBus(0)
		res, rep, err := naspipe.RunJob(context.Background(), spec, false, naspipe.SuperviseConfig{Telemetry: bus})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Restarts != 1 || bus.Count(telemetry.OpFaultCrash) != 1 {
			t.Fatalf("%d restarts, %d crash events on the bus, want the pinned crash's 1",
				rep.Restarts, bus.Count(telemetry.OpFaultCrash))
		}
		if spans := engine.SpansFromEvents(bus.Events()); len(spans) != tasks || res.Spans != nil {
			t.Fatalf("bus rebuilt %d spans over both incarnations (want %d), Result.Spans %d", len(spans), tasks, len(res.Spans))
		}
	})
}

// TestJobVerifyRejectsSwappedWrites is the negative control for the
// check RunJob and the fleet share: an observed trace in which two
// consecutive subnets' WRITEs of one layer trade places breaks
// Definition 1, and Job.Verify must refuse it.
func TestJobVerifyRejectsSwappedWrites(t *testing.T) {
	spec := verifySpec()
	res, _, err := naspipe.RunJob(context.Background(), spec, false, naspipe.SuperviseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := naspipe.LowerJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Verify(res); err != nil {
		t.Fatalf("the observed trace itself failed verification: %v", err)
	}

	evs := append([]trace.Event(nil), res.ObservedTrace.Events...)
	lastWrite := map[int]int{} // layer -> index of its latest WRITE
	swapped := false
	for i, ev := range evs {
		if ev.Kind != trace.Write {
			continue
		}
		if p, ok := lastWrite[int(ev.Layer)]; ok && evs[p].Subnet+1 == ev.Subnet {
			evs[p], evs[i] = evs[i], evs[p]
			swapped = true
			break
		}
		lastWrite[int(ev.Layer)] = i
	}
	if !swapped {
		t.Fatal("no layer written by two consecutive subnets; pick another seed")
	}
	bad := res
	bad.ObservedTrace = &trace.Trace{Events: evs}
	if _, err := job.Verify(bad); err == nil {
		t.Fatal("Job.Verify accepted a trace with two consecutive subnets' WRITEs swapped")
	}
}

// TestVerifyAgainstSequentialAtEveryBase pins the one-pass verifier.
// With the committed prefix at 0, N/2 or N subnets and the rest of a CSP
// run's trace as the observed suffix, it returns the sequential
// reference's checksum. A base outside [0, N] is refused with the same
// error as ever.
func TestVerifyAgainstSequentialAtEveryBase(t *testing.T) {
	spec := verifySpec()
	want := sequentialChecksum(t, spec)
	tc, _ := spec.TrainConfig()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := naspipe.RunJob(context.Background(), spec, false, naspipe.SuperviseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n := spec.Subnets
	for _, base := range []int{0, n / 2, n} {
		suffix := res
		suffix.BaseSeq = base
		suffix.ObservedTrace = &trace.Trace{}
		for _, ev := range res.ObservedTrace.Events {
			if ev.Subnet >= base {
				suffix.ObservedTrace.Events = append(suffix.ObservedTrace.Events, ev)
			}
		}
		got, err := naspipe.VerifyAgainstSequential(tc, cfg, suffix)
		if err != nil || got != want {
			t.Errorf("base %d: checksum %016x, error %v; want %016x", base, got, err, want)
		}
	}
	for _, base := range []int{-1, n + 1} {
		bad := res
		bad.BaseSeq = base
		_, err := naspipe.VerifyAgainstSequential(tc, cfg, bad)
		if msg := fmt.Sprintf("naspipe: verify: resume base %d out of range [0, %d]", base, n); err == nil || err.Error() != msg {
			t.Errorf("base %d: error %v, want %q", base, err, msg)
		}
	}
}
