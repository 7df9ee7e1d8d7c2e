package naspipe_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"naspipe"
	"naspipe/internal/data"
	"naspipe/internal/fault"
)

// maxResumes bounds the crash-resume loop for rate-based schedules:
// each incarnation rolls a fresh fault schedule over ever less
// remaining work, so convergence is expected long before this.
const maxResumes = 60

func crashCfg(gpus int) naspipe.Config {
	return naspipe.Config{
		Space:      naspipe.NLPc3.Scaled(8, 3),
		Spec:       naspipe.DefaultCluster(gpus),
		Seed:       7,
		NumSubnets: 18,
	}
}

func crashTrainCfg(cfg naspipe.Config) naspipe.TrainConfig {
	return naspipe.TrainConfig{Space: cfg.Space, Dim: 8, Seed: cfg.Seed,
		BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
}

// crashSpec is crashCfg(gpus) as a concurrent JobSpec that keeps its
// checkpoint at ckpt and trains crashTrainCfg's numeric plane.
func crashSpec(gpus int, ckpt string) naspipe.JobSpec {
	return naspipe.JobSpec{
		Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3, Executor: "concurrent",
		GPUs: gpus, Subnets: 18, Seed: 7, Checkpoint: ckpt,
		Train: &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05},
	}
}

// crashSchedules is the fault matrix: deterministic targeted crashes at
// different pipeline sites and kinds, rate-based crashes layered over
// message faults, and a crash combined with total prefetch failure.
// Targeted stages are reduced modulo the GPU count so every schedule
// crashes on every tested depth.
var crashSchedules = []struct{ name, spec string }{
	{"early-fwd", "seed=101,crashat=1:2:F"},
	{"late-bwd", "seed=102,crashat=0:15:B"},
	{"mid-fwd+drop", "seed=103,crashat=3:9:F,drop=0.1"},
	{"stage0-bwd+delay", "seed=104,crashat=0:5:B,delay=0.15"},
	{"deep-fwd+dup", "seed=105,crashat=7:12:F,dup=0.1"},
	{"fwd+fetchfail", "seed=106,crashat=1:11:F,fetchfail=1.0"},
	{"rate+msgs", "seed=107,crash=0.02,drop=0.08,dup=0.08"},
	{"rate+delay", "seed=108,crash=0.018,delay=0.1"},
	{"rate-all", "seed=109,crash=0.022,drop=0.06,delay=0.06,dup=0.06"},
}

// seqReference memoizes the uninterrupted sequential checksum — it
// depends only on the stream and training config, not the GPU count.
var seqReference struct {
	once sync.Once
	want uint64
}

// TestCrashResumeMatrix is the acceptance gate for the operator's CLI
// contract: every fault schedule × {2,4,8} GPUs runs unsupervised through
// naspipe.RunJob, and on every *CrashError the test does what a `-resume`
// shell loop does — checks that the checkpoint bumped the incarnation,
// then calls RunJob again with resume=true (a fresh Runner, so a fresh
// Checkpointer per incarnation: the cold path), looping while the fault
// plan keeps crashing the resumed incarnations. The final weights must
// be bitwise identical to the uninterrupted sequential reference. The
// workload is matrixCell's historical geometry with its
// supervision dropped; TestSupervisedCrashMatrix runs the same cells
// under supervise.Run.
func TestCrashResumeMatrix(t *testing.T) {
	for _, gpus := range []int{2, 4, 8} {
		for _, sc := range crashSchedules {
			gpus, sc := gpus, sc
			t.Run(fmt.Sprintf("gpus=%d/%s", gpus, sc.name), func(t *testing.T) {
				t.Parallel()
				s, err := matrixCell(sc.name, sc.spec, gpus)
				if err != nil {
					t.Fatalf("matrix cell: %v", err)
				}
				comp, err := s.Compile(t.TempDir())
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				spec := comp.Jobs[0].Spec
				spec.Supervise = nil

				ctx := context.Background()
				res, _, err := naspipe.RunJob(ctx, spec, false, naspipe.SuperviseConfig{})
				crashes := 0
				for ; err != nil; crashes++ {
					var crash *fault.CrashError
					if !errors.As(err, &crash) {
						t.Fatalf("non-crash failure after %d crashes: %v", crashes, err)
					}
					if crashes == maxResumes {
						t.Fatalf("still crashing after %d resumes: %v", maxResumes, err)
					}
					ck, lerr := naspipe.LoadCheckpoint(spec.Checkpoint)
					if lerr != nil {
						t.Fatalf("crash left no loadable checkpoint: %v", lerr)
					}
					if ck.Incarnation != crash.Incarnation+1 {
						t.Fatalf("checkpoint incarnation %d after a crash in incarnation %d (want the bump to %d)",
							ck.Incarnation, crash.Incarnation, crash.Incarnation+1)
					}
					res, _, err = naspipe.RunJob(ctx, spec, true, naspipe.SuperviseConfig{})
				}
				// Every schedule must actually exercise crash-then-resume.
				// Fault decisions are pure functions of (seed, incarnation,
				// site), so this is deterministic, not flaky: the seeds above
				// are chosen to crash at every tested depth.
				if crashes == 0 {
					t.Fatalf("schedule %q never crashed on %d GPUs", sc.spec, gpus)
				}
				if res.BaseSeq+res.Completed != spec.Subnets {
					t.Fatalf("coverage hole: base %d + completed %d != %d subnets", res.BaseSeq, res.Completed, spec.Subnets)
				}
				cfg, err := spec.Config()
				if err != nil {
					t.Fatal(err)
				}
				tc, _ := spec.TrainConfig()
				if _, err := naspipe.VerifyAgainstSequential(tc, cfg, res); err != nil {
					t.Fatalf("final weights not bitwise-verified against the sequential reference: %v", err)
				}
			})
		}
	}
}

// TestResumeRejectsMismatchedConfig pins the checkpoint identity guard:
// a checkpoint written for one run must refuse to resume a different
// space, seed, GPU count, stream length, or jitter seed.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	spec := crashSpec(4, filepath.Join(t.TempDir(), "run.ckpt"))
	spec.Train = nil
	spec.Faults = "seed=1,crashat=1:4:F"
	ctx := context.Background()
	hooks := naspipe.SuperviseConfig{}
	if _, _, err := naspipe.RunJob(ctx, spec, false, hooks); err == nil {
		t.Fatal("targeted crash did not fire")
	}

	for name, mutate := range map[string]func(*naspipe.JobSpec){
		"seed":    func(s *naspipe.JobSpec) { s.Seed++ },
		"gpus":    func(s *naspipe.JobSpec) { s.GPUs = 8 },
		"subnets": func(s *naspipe.JobSpec) { s.Subnets++ },
		"space":   func(s *naspipe.JobSpec) { s.Space = "NLP.c2" },
		"jitter":  func(s *naspipe.JobSpec) { s.JitterSeed = 99 },
	} {
		s := spec
		mutate(&s)
		if _, _, err := naspipe.RunJob(ctx, s, true, hooks); err == nil {
			t.Errorf("resume accepted a checkpoint with mismatched %s", name)
		}
	}

	// The unmutated spec must still resume cleanly.
	if _, _, err := naspipe.RunJob(ctx, spec, true, hooks); err != nil {
		t.Fatalf("matching spec failed to resume: %v", err)
	}
}

// TestRunnerFaultOptionValidation pins the option surface: fault and
// checkpoint options are concurrent-plane-only, checkpoint training
// requires a checkpoint, and invalid plans are rejected at construction.
// A resume needs a checkpoint to resume from. (checkpoint_every's rules
// are rows of TestJobSpecValidate.)
func TestRunnerFaultOptionValidation(t *testing.T) {
	plan := &naspipe.FaultPlan{Seed: 1, DropRate: 0.1}
	cases := []struct {
		name string
		opts []naspipe.RunnerOption
	}{
		{"faults-on-simulated", []naspipe.RunnerOption{naspipe.WithFaults(plan)}},
		{"checkpoint-on-simulated", []naspipe.RunnerOption{naspipe.WithCheckpoint("x.ckpt")}},
		{"training-without-checkpoint", []naspipe.RunnerOption{
			naspipe.WithExecutor(naspipe.ExecutorConcurrent), naspipe.WithCheckpointTraining(naspipe.TrainConfig{})}},
		{"invalid-plan", []naspipe.RunnerOption{
			naspipe.WithExecutor(naspipe.ExecutorConcurrent),
			naspipe.WithFaults(&naspipe.FaultPlan{DropRate: 1.5})}},
	}
	for _, c := range cases {
		if _, err := naspipe.NewRunner(c.opts...); err == nil {
			t.Errorf("%s: NewRunner accepted an invalid option set", c.name)
		}
	}
	if _, err := naspipe.NewRunner(naspipe.WithExecutor(naspipe.ExecutorConcurrent)); err != nil {
		t.Errorf("baseline concurrent runner rejected: %v", err)
	}
	if _, _, err := naspipe.RunJob(context.Background(), crashSpec(2, ""), true, naspipe.SuperviseConfig{}); err == nil {
		t.Error("a resume without a checkpoint path must fail")
	}
}
