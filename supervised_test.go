package naspipe_test

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"naspipe"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/scenario"
	"naspipe/internal/telemetry"
	"naspipe/internal/train"
)

// superviseTestConfig is the test baseline: generous budgets (the
// aggressive rate-based schedules legitimately crash many incarnations
// in a row before the frontier first advances) and backoff shrunk so
// retry loops run in microseconds instead of the operator-scale default.
func superviseTestConfig() naspipe.SuperviseConfig {
	sc := naspipe.DefaultSuperviseConfig()
	sc.MaxRestarts = 60
	sc.CrashLoopWindow = 25
	sc.BackoffBase = 100 * time.Microsecond
	sc.BackoffMax = time.Millisecond
	return sc
}

// superviseTestSpec is superviseTestConfig as a JobSpec's supervise
// block.
func superviseTestSpec() *naspipe.SuperviseSpec {
	return &naspipe.SuperviseSpec{
		MaxRestarts: 60, CrashLoopWindow: 25,
		Backoff: naspipe.Duration(100 * time.Microsecond), BackoffMax: naspipe.Duration(time.Millisecond),
	}
}

// assertSupervisedBitwise composes the committed sequential prefix with
// the final incarnation's replayed suffix trace and requires bitwise
// equality with the uninterrupted sequential reference — the same
// composition law TestCrashResumeMatrix pins for the -resume loop.
func assertSupervisedBitwise(t *testing.T, res naspipe.Result) {
	t.Helper()
	cfg0 := crashCfg(2)
	tc := crashTrainCfg(cfg0)
	full := naspipe.SampleSubnets(cfg0.Space, cfg0.Seed, cfg0.NumSubnets)
	seqReference.once.Do(func() {
		seqReference.want = naspipe.TrainSequential(tc, full).Checksum
	})
	want := seqReference.want
	if res.BaseSeq+res.Completed != len(full) {
		t.Fatalf("final run covers [%d, %d), want end %d", res.BaseSeq, res.BaseSeq+res.Completed, len(full))
	}
	prefix := naspipe.TrainSequential(tc, full[:res.BaseSeq])
	got := prefix.Checksum
	if res.BaseSeq < len(full) {
		rep, err := train.ReplayOn(tc, prefix.Net, full[res.BaseSeq:], res.Trace)
		if err != nil {
			t.Fatalf("suffix replay: %v", err)
		}
		got = rep.Checksum
	}
	if got != want {
		t.Fatalf("supervised weights %016x diverge from sequential reference %016x", got, want)
	}
}

// TestSupervisedCrashMatrix is the supervision plane's acceptance gate:
// every fault schedule × {2,4,8} GPUs runs to completion under the
// supervisor with zero operator intervention — crashes caught
// in-process, resumed from the checkpoint — and the final weights stay
// bitwise identical to the uninterrupted sequential reference.
// Each cell is scenario.MatrixCell — the historical workload geometry
// with the matrices' generous budgets attached as a SuperviseSpec — run
// through naspipe.RunJob and bitwise-verified by scenario.Run.
func TestSupervisedCrashMatrix(t *testing.T) {
	for _, gpus := range []int{2, 4, 8} {
		for _, sched := range crashSchedules {
			gpus, sched := gpus, sched
			t.Run(fmt.Sprintf("gpus=%d/%s", gpus, sched.name), func(t *testing.T) {
				t.Parallel()
				s, err := scenario.MatrixCell(sched.name, sched.spec, gpus)
				if err != nil {
					t.Fatalf("matrix cell: %v", err)
				}
				cell, _, err := scenario.Run(context.Background(), s, scenario.Options{StateDir: t.TempDir()})
				if err != nil {
					t.Fatalf("scenario run: %v", err)
				}
				if len(cell.Failures) > 0 {
					t.Fatalf("supervised cell failed: %v", cell.Failures)
				}
				if !cell.Verified {
					t.Fatal("supervised weights not bitwise-verified against the sequential reference")
				}
				// Every schedule crashes at incarnation 0 (pinned by
				// TestCrashResumeMatrix), so supervision must have restarted.
				if cell.Restarts < 1 {
					t.Fatalf("schedule %q never exercised supervised recovery on %d GPUs", sched.spec, gpus)
				}
			})
		}
	}
}

// TestRunJobDispatch pins the one restart driver's dispatch table,
// supervised × resume: a supervised job returns a Report and an
// unsupervised one nil; resume on an empty checkpoint dir fails with
// the checkpoint-load error; the hooks' one bus carries the engine's
// events and, supervised, every health transition the Observer saw.
func TestRunJobDispatch(t *testing.T) {
	for _, supervised := range []bool{false, true} {
		for _, resume := range []bool{false, true} {
			t.Run(fmt.Sprintf("supervised=%v/resume=%v", supervised, resume), func(t *testing.T) {
				spec := naspipe.JobSpec{
					Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3,
					Executor: "concurrent", GPUs: 2, Subnets: 6, Seed: 7,
					Checkpoint: filepath.Join(t.TempDir(), "run.ckpt"),
				}
				if supervised {
					spec.Supervise = &naspipe.SuperviseSpec{}
				}
				bus := telemetry.NewBus(0)
				observed := 0
				res, rep, err := naspipe.RunJob(context.Background(), spec, resume, naspipe.SuperviseConfig{
					Telemetry: bus,
					Observer:  func(naspipe.HealthTransition) { observed++ },
				})
				if (rep != nil) != supervised {
					t.Fatalf("report %+v for supervised=%v", rep, supervised)
				}
				snap := bus.Snapshot()
				if resume {
					if !errors.Is(err, fs.ErrNotExist) {
						t.Fatalf("resume on an empty dir returned %v, want the checkpoint-load error", err)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					if res.Completed != spec.Subnets || snap.Completed == 0 {
						t.Fatalf("run completed %d/%d subnets, %d task completions on the bus", res.Completed, spec.Subnets, snap.Completed)
					}
				}
				if supervised == (observed == 0) || snap.HealthTransitions != int64(observed) {
					t.Fatalf("Observer saw %d transitions, bus %d (supervised=%v)", observed, snap.HealthTransitions, supervised)
				}
			})
		}
	}
}

// TestSupervisedElasticDegrade pins elastic degraded-mode recovery: a
// crash attributed to one stage at D=8 triggers a halving to D=4, the
// suffix re-partitions across 4 stages, and the composed weights are
// still bitwise identical — CSP orders accesses by subnet sequence, not
// stage count.
func TestSupervisedElasticDegrade(t *testing.T) {
	spec := crashSpec(8, filepath.Join(t.TempDir(), "run.ckpt"))
	trace := true
	spec.Trace = &trace
	spec.Faults = "seed=101,crashat=1:5:F"
	spec.Supervise = superviseTestSpec()
	spec.Supervise.ElasticAfter = 1 // implies elastic resume
	res, rep, err := naspipe.RunJob(context.Background(), spec, false, naspipe.SuperviseConfig{})
	if err != nil {
		t.Fatalf("elastic supervised run failed: %v", err)
	}
	if len(rep.ElasticSteps) != 1 || rep.ElasticSteps[0] != 4 || rep.FinalGPUs != 4 {
		t.Fatalf("elastic steps %v final D=%d, want one halving to 4", rep.ElasticSteps, rep.FinalGPUs)
	}
	if res.D != 4 {
		t.Fatalf("final incarnation ran at D=%d, want 4", res.D)
	}
	assertSupervisedBitwise(t, res)
}

// TestSupervisedElasticNeedsOptIn pins the validation: ElasticAfter on a
// Runner without elastic resume (only a JobSpec lowers one) is a config
// error, because the checkpoint identity guard would reject the
// re-partitioned resume.
func TestSupervisedElasticNeedsOptIn(t *testing.T) {
	r, err := naspipe.NewRunner(
		naspipe.WithExecutor(naspipe.ExecutorConcurrent),
		naspipe.WithCheckpoint(filepath.Join(t.TempDir(), "run.ckpt")),
	)
	if err != nil {
		t.Fatal(err)
	}
	sc := superviseTestConfig()
	sc.ElasticAfter = 1
	_, rep, err := r.RunSupervised(context.Background(), crashCfg(8), sc)
	if err == nil || !strings.Contains(err.Error(), "elastic resume") {
		t.Fatalf("elastic config without opt-in accepted: %v", err)
	}
	if rep.FinalState != naspipe.HealthFailed {
		t.Fatalf("report state %v, want failed", rep.FinalState)
	}
}

// TestSupervisedRequiresCheckpointAndConcurrent pins the job validation
// surface.
func TestSupervisedRequiresCheckpointAndConcurrent(t *testing.T) {
	noCkpt, err := naspipe.NewRunner(naspipe.WithExecutor(naspipe.ExecutorConcurrent))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := noCkpt.RunSupervised(context.Background(), crashCfg(2), superviseTestConfig()); err == nil {
		t.Fatal("supervision without WithCheckpoint accepted")
	}
	simulated, err := naspipe.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := simulated.RunSupervised(context.Background(), crashCfg(2), superviseTestConfig()); err == nil {
		t.Fatal("supervision on the simulated executor accepted")
	}
}

// TestSupervisedResumeGuardRunsBeforeWatchdog: a supervised resume
// verifies its checkpoint before the first incarnation, outside the
// watchdog. A prefix retrain slower than the stall timeout that then
// refuses the file fails the job with the guard's error and a failed
// Report — no watchdog fire, no restart, no panic.
func TestSupervisedResumeGuardRunsBeforeWatchdog(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	spec := crashSpec(4, ckpt)
	spec.Faults = "seed=1,crashat=1:9:F"
	ctx := context.Background()
	if _, _, err := naspipe.RunJob(ctx, spec, false, naspipe.SuperviseConfig{}); err == nil {
		t.Fatal("targeted crash did not fire")
	}
	ck, err := fault.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ck.WeightChecksum ^= 1
	if err := ck.Save(ckpt); err != nil {
		t.Fatal(err)
	}
	const stall = 20 * time.Millisecond
	restore := naspipe.HookWeightFn(func(fn func(int) uint64) func(int) uint64 {
		return func(cursor int) uint64 {
			time.Sleep(10 * stall) // a prefix retrain outlasting the watchdog
			return fn(cursor)
		}
	})
	defer restore()
	spec.Supervise = superviseTestSpec()
	spec.Supervise.StallTimeout = naspipe.Duration(stall)
	_, rep, err := naspipe.RunJob(ctx, spec, true, naspipe.SuperviseConfig{})
	if err == nil || !strings.Contains(err.Error(), "weight checksum") {
		t.Fatalf("resume with a corrupt weight checksum = %v, want the guard's refusal", err)
	}
	if rep == nil || rep.FinalState != naspipe.HealthFailed || rep.Restarts != 0 || rep.WatchdogFires != 0 {
		t.Fatalf("report %+v, want failed with no restart and no watchdog fire", rep)
	}
}

// TestSupervisedWatchdogRecoversWedge pins the watchdog end to end: a
// wedged stage completes nothing, the watchdog converts the flat
// progress signals into a diagnosed stall naming the wedged stage, and
// the supervisor resumes the incarnation to a bitwise-verified finish.
func TestSupervisedWatchdogRecoversWedge(t *testing.T) {
	plan, err := naspipe.ParseFaultPlan("seed=7,wedgeat=1:6:F")
	if err != nil {
		t.Fatal(err)
	}
	cfg := crashCfg(4)
	bus := telemetry.NewBus(0)
	r, err := naspipe.NewRunner(
		naspipe.WithExecutor(naspipe.ExecutorConcurrent),
		naspipe.WithTrace(true),
		naspipe.WithFaults(plan),
		naspipe.WithCheckpoint(filepath.Join(t.TempDir(), "run.ckpt")),
		naspipe.WithCheckpointTraining(crashTrainCfg(cfg)),
	)
	if err != nil {
		t.Fatal(err)
	}
	sc := superviseTestConfig()
	sc.Watchdog.StallAfter = 150 * time.Millisecond
	sc.Telemetry = bus
	cfg.Telemetry = bus
	res, rep, err := r.RunSupervised(context.Background(), cfg, sc)
	if err != nil {
		t.Fatalf("wedged supervised run failed: %v", err)
	}
	if rep.WatchdogFires != 1 || len(rep.Incidents) != 1 {
		t.Fatalf("watchdog fires=%d incidents=%d, want exactly one stall", rep.WatchdogFires, len(rep.Incidents))
	}
	in := rep.Incidents[0]
	if in.Stall == nil {
		t.Fatal("incident not attributed to the watchdog")
	}
	if got := in.Stall.BlockedStage(); got != 1 {
		t.Fatalf("diagnosis blames stage %d, want the wedged stage 1", got)
	}
	if !in.Stall.Diag.Stages[1].Wedged {
		t.Fatalf("stage 1 not flagged wedged in the diagnosis: %+v", in.Stall.Diag.Stages[1])
	}
	if msg := in.Stall.Error(); !strings.Contains(msg, "diagnosis: stage 1 is the blocked stage") {
		t.Fatalf("diagnosis text does not name the blocked stage:\n%s", msg)
	}
	// Every state transition landed on the bus as an OpHealth event.
	if snap := bus.Snapshot(); snap.HealthTransitions != int64(len(rep.Transitions)) || snap.HealthTransitions == 0 {
		t.Fatalf("health events on bus = %d, report has %d transitions", snap.HealthTransitions, len(rep.Transitions))
	}
	assertSupervisedBitwise(t, res)
}

// TestSupervisedWatchdogQuietOnFaultFreeMatrix pins the false-positive
// bound: heavy timing jitter plus a cache budget of one subnet footprint
// (maximum thrash) across the depth matrix must never trip the stall
// detector, because task completions keep the progress signals moving.
func TestSupervisedWatchdogQuietOnFaultFreeMatrix(t *testing.T) {
	for _, gpus := range []int{2, 4, 8} {
		gpus := gpus
		t.Run(fmt.Sprintf("gpus=%d", gpus), func(t *testing.T) {
			t.Parallel()
			cfg := crashCfg(gpus)
			cfg.TimingJitter = 1.0
			cfg.JitterSeed = cfg.Seed
			cfg.ConcurrentMem = engine.MemPlaneConfig{CacheFactor: 1}
			r, err := naspipe.NewRunner(
				naspipe.WithExecutor(naspipe.ExecutorConcurrent),
				naspipe.WithTrace(true),
				naspipe.WithCheckpoint(filepath.Join(t.TempDir(), "run.ckpt")),
				naspipe.WithCheckpointTraining(crashTrainCfg(cfg)),
			)
			if err != nil {
				t.Fatal(err)
			}
			sc := superviseTestConfig()
			sc.Watchdog.StallAfter = 500 * time.Millisecond
			sc.Watchdog.Poll = 2 * time.Millisecond
			_, rep, err := r.RunSupervised(context.Background(), cfg, sc)
			if err != nil {
				t.Fatalf("fault-free supervised run failed: %v", err)
			}
			if rep.WatchdogFires != 0 || rep.Restarts != 0 {
				t.Fatalf("watchdog false positive: fires=%d restarts=%d", rep.WatchdogFires, rep.Restarts)
			}
		})
	}
}

// TestSupervisedCancelLeavesResumableCheckpointAndNoLeaks pins graceful
// interruption: cancelling mid-run (here: while a wedge holds the
// pipeline at a known committed cursor) returns the context error with
// the state machine short of done/failed, leaves a valid resumable
// checkpoint, leaks no goroutines, and the resumed supervised run
// finishes bitwise identical.
func TestSupervisedCancelLeavesResumableCheckpointAndNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := crashCfg(2)
	spec := crashSpec(2, ckpt)
	trace := true
	spec.Trace = &trace
	spec.Faults = "seed=7,wedgeat=0:10:B"
	spec.Supervise = superviseTestSpec()
	spec.Supervise.StallTimeout = naspipe.Duration(time.Minute) // the test cancels first
	hooks := naspipe.SuperviseConfig{}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	var res naspipe.Result
	var rep *naspipe.SuperviseReport
	var runErr error
	go func() {
		defer close(done)
		res, rep, runErr = naspipe.RunJob(ctx, spec, false, hooks)
	}()

	// The wedge at stage 0's backward of subnet 10 holds the run exactly
	// at committed cursor 10: frontier commits are contiguous, so when
	// the wedge fires subnets 0..9 are on disk. Wait for that cut, then
	// interrupt.
	deadline := time.After(15 * time.Second)
	for {
		if ck, err := naspipe.LoadCheckpoint(ckpt); err == nil && ck.Cursor >= 10 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("checkpoint never reached the wedge cursor")
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled supervised run did not return")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("interruption returned %v, want context.Canceled", runErr)
	}
	if rep.FinalState == naspipe.HealthDone || rep.FinalState == naspipe.HealthFailed {
		t.Fatalf("interrupted state %v — must stay resumable, not terminal", rep.FinalState)
	}
	_ = res

	ck, err := naspipe.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("checkpoint invalid after interruption: %v", err)
	}
	if ck.Cursor != 10 || ck.NumSubnets != cfg.NumSubnets {
		t.Fatalf("checkpoint cursor %d/%d, want 10/%d", ck.Cursor, ck.NumSubnets, cfg.NumSubnets)
	}
	if ck.Incarnation < 1 {
		t.Fatalf("interruption did not bump the incarnation: %d (the wedge would refire)", ck.Incarnation)
	}

	// No goroutine may outlive the cancelled run (stage goroutines,
	// watchdog, prefetchers). Allow the runtime a moment to retire them.
	leakDeadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		select {
		case <-leakDeadline:
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		case <-time.After(10 * time.Millisecond):
		}
	}

	// The interrupted run resumes under supervision to a bitwise finish;
	// the incarnation bump means the wedge does not refire.
	res2, rep2, err := naspipe.RunJob(context.Background(), spec, true, hooks)
	if err != nil {
		t.Fatalf("supervised resume after interruption failed: %v", err)
	}
	if rep2.FinalState != naspipe.HealthDone || rep2.WatchdogFires != 0 {
		t.Fatalf("resume state %v fires %d, want clean done", rep2.FinalState, rep2.WatchdogFires)
	}
	if res2.BaseSeq != 10 {
		t.Fatalf("resume started at cursor %d, want 10", res2.BaseSeq)
	}
	assertSupervisedBitwise(t, res2)
}
