package naspipe

import (
	"context"
	"errors"
	"fmt"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/train"
)

// ExecutorKind selects which execution plane a Runner drives.
type ExecutorKind int

const (
	// ExecutorSimulated runs on the deterministic discrete-event
	// simulator: full memory model (batch sizing, context cache, swap),
	// any scheduling policy, simulated time.
	ExecutorSimulated ExecutorKind = iota
	// ExecutorConcurrent runs on the goroutine-per-stage CSP executor:
	// every pipeline stage is a real goroutine, activations/gradients
	// flow over channels, and each stage admits work through its own CSP
	// scheduler. Wall-clock timing, race-clean, and — the point —
	// provably order-deterministic: the run fails if the observed
	// per-layer access order ever diverges from the sequential reference.
	// Only the "naspipe" (CSP) policy is available on this plane.
	ExecutorConcurrent
)

// String names the executor kind for reports and errors.
func (k ExecutorKind) String() string {
	switch k {
	case ExecutorSimulated:
		return "simulated"
	case ExecutorConcurrent:
		return "concurrent"
	}
	return fmt.Sprintf("ExecutorKind(%d)", int(k))
}

// Runner is one run's plan below the Config: the policy, the execution
// plane, and the checkpoint plane (path, save interval, training config,
// elasticity) — what a Config does not hold. RunJob builds one from a
// JobSpec's lowering; that is the way in:
//
//	res, _, err := naspipe.RunJob(ctx, naspipe.JobSpec{
//	        Space: "NLP.c1", Executor: "concurrent",
//	        GPUs: 8, Subnets: 120, Seed: 1,
//	}, false, naspipe.SuperviseConfig{})
//
// NewRunner and its options remain only for the benchmark harness's
// checkpoint probes, which set the trace and fault overrides on a Runner
// of their own (ROADMAP item 13). A Runner is immutable after
// construction and safe for concurrent use; it builds a fresh policy
// instance per run.
type Runner struct {
	policy   string
	executor ExecutorKind
	trace    bool
	traceSet bool
	faults   *fault.Plan

	ckptPath  string
	ckptEvery int
	trainCfg  *train.Config
	elastic   bool
}

// RunnerOption configures a Runner under construction.
type RunnerOption func(*Runner)

// WithExecutor selects the execution plane. Default: ExecutorSimulated.
func WithExecutor(kind ExecutorKind) RunnerOption {
	return func(r *Runner) { r.executor = kind }
}

// WithTrace forces parameter-access trace recording on or off for every
// run, overriding Config.RecordTrace. Unset, Config.RecordTrace decides.
func WithTrace(record bool) RunnerOption {
	return func(r *Runner) { r.trace = record; r.traceSet = true }
}

// WithFaults activates the deterministic fault-injection plane for every
// run: seed-driven stage crashes at task boundaries, dropped/delayed/
// duplicated cross-stage messages with bounded retry and exponential
// backoff, and prefetch-copy failures surfaced as cache misses. Build a
// plan directly or with ParseFaultPlan. Concurrent executor only.
func WithFaults(plan *FaultPlan) RunnerOption {
	return func(r *Runner) { r.faults = plan }
}

// WithCheckpoint persists crash-consistent checkpoints to path as the
// pipeline's committed frontier advances. Run starts fresh, overwriting
// path; RunJob with resume set continues from it. Concurrent executor
// only.
func WithCheckpoint(path string) RunnerOption {
	return func(r *Runner) { r.ckptPath = path }
}

// WithCheckpointTraining attaches a numeric training config to the
// checkpoint plane: every saved checkpoint then carries the FNV-64
// weight checksum of the committed sequential prefix, and a resume
// verifies the stream against it before continuing. Requires
// WithCheckpoint; the incremental training steps up to a cut run on the
// checkpoint writer, once per saved cut, off the pipeline's stage 0.
func WithCheckpointTraining(tc TrainConfig) RunnerOption {
	return func(r *Runner) { r.trainCfg = &tc }
}

// NewRunner validates the option set and returns an immutable Runner
// running the "naspipe" policy.
func NewRunner(opts ...RunnerOption) (*Runner, error) {
	r := &Runner{policy: "naspipe"}
	for _, opt := range opts {
		opt(r)
	}
	if err := r.init(); err != nil {
		return nil, fmt.Errorf("naspipe: %w", err)
	}
	return r, nil
}

// init checks the rules the options share with a JobSpec's lowering, so
// both report them with the same field: the plane exists, and faults,
// checkpoints and checkpoint training belong to the concurrent plane.
// JobSpec.check holds every rule only a spec can break.
func (r *Runner) init() error {
	if r.executor != ExecutorSimulated && r.executor != ExecutorConcurrent {
		return &specErr{Field: "executor", Msg: fmt.Sprintf("unknown executor %v", r.executor)}
	}
	if (r.faults != nil || r.ckptPath != "" || r.trainCfg != nil) && r.executor != ExecutorConcurrent {
		return &specErr{Field: "faults", Msg: fmt.Sprintf("faults/checkpoint/training configure the concurrent execution plane; the %v executor has no goroutines to crash or resume", r.executor)}
	}
	if r.faults != nil {
		if err := r.faults.Validate(); err != nil {
			return &specErr{Field: "faults", Msg: err.Error()}
		}
	}
	// trainCfg without a checkpoint path has nothing to checksum.
	if r.trainCfg != nil && r.ckptPath == "" {
		return &specErr{Field: "checkpoint", Msg: "WithCheckpointTraining refines WithCheckpoint, which is not set"}
	}
	return nil
}

// Run executes one pipeline training run on the configured plane. It
// honors ctx between pipeline steps; on cancellation it returns the
// partial Result together with ctx.Err().
//
// With WithCheckpoint, Run starts fresh — it overwrites the checkpoint
// file with cursor 0 and persists cuts as the run commits subnets. A
// fault-injected crash surfaces as a *fault.CrashError after the crash
// incarnation has been recorded, so a resume continues where the
// committed frontier stopped.
func (r *Runner) Run(ctx context.Context, cfg Config) (Result, error) {
	if r.executor == ExecutorConcurrent {
		res, _, err := (&Job{r: r, cfg: cfg}).drive(ctx, false, nil, engine.RunConcurrent)
		return res, err
	}
	r.applyOverrides(&cfg)
	p, err := sched.New(r.policy)
	if err != nil {
		return Result{}, err
	}
	return engine.RunContext(ctx, cfg, p)
}

// identity is the checkpoint identity of a run of n subnets at cfg: the
// fields a resume verifies, plus the fault seed it runs under.
func (r *Runner) identity(cfg Config, n int) fault.Checkpoint {
	ck := fault.Checkpoint{
		Space: cfg.Space.Name, Seed: cfg.Seed, GPUs: cfg.Spec.GPUs,
		NumSubnets: n, JitterSeed: cfg.JitterSeed,
	}
	if r.faults != nil {
		ck.FaultSeed = r.faults.Seed
	}
	return ck
}

// applyOverrides folds the Runner's trace and fault overrides into a run
// config.
func (r *Runner) applyOverrides(cfg *Config) {
	if r.traceSet {
		cfg.RecordTrace = r.trace
	}
	if r.executor == ExecutorConcurrent && r.faults != nil {
		cfg.Faults = r.faults
	}
}

// weightFn returns the prefix weight checksum function over the complete
// global subnet stream: a Checkpointer's, which a job builds once (nil
// without a training config).
func (r *Runner) weightFn(full []supernet.Subnet) func(cursor int) uint64 {
	if r.trainCfg == nil {
		return nil
	}
	return prefixChecksummer(*r.trainCfg, full)
}

// prefixChecksummer is a variable so tests can watch Checkpointers built.
var prefixChecksummer = func(tc train.Config, full []supernet.Subnet) func(int) uint64 {
	return train.NewCheckpointer(tc, full).ChecksumAt
}

// interrupted reports whether err ended a run that its checkpoint can
// continue: an injected crash, or any error once ctx ended (signal,
// watchdog, deadline). The recovery loop bumps the incarnation on it and
// ExitCodeOf maps it to ExitResumable, so a run and its exit code agree
// on what is resumable.
func interrupted(ctx context.Context, err error) bool {
	var crash *fault.CrashError
	return errors.As(err, &crash) || (err != nil && ctx.Err() != nil)
}
