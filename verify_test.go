package naspipe_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"naspipe"
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
		var crash *naspipe.CrashError
		if _, _, err := naspipe.RunJob(ctx, spec, false, naspipe.SuperviseConfig{}); !errors.As(err, &crash) {
			t.Fatalf("first incarnation returned %v, want the pinned crash", err)
		}
		res, _, err := naspipe.RunJob(ctx, spec, true, naspipe.SuperviseConfig{})
		check(t, res, err)
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
