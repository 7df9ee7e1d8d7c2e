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
	return r.run(ctx, cfg, nil)
}

// run is Run on weightAt, a supervised job's shared prefix weight
// function; nil (a cold process) builds one.
func (r *Runner) run(ctx context.Context, cfg Config, weightAt func(int) uint64) (Result, error) {
	r.applyOverrides(&cfg)
	switch r.executor {
	case ExecutorConcurrent:
		if r.ckptPath == "" {
			return engine.RunConcurrent(ctx, cfg)
		}
		full := cfg.ResolveSubnets()
		return r.runCheckpointed(ctx, cfg, r.weightFn(full, weightAt), r.identity(cfg, len(full)))
	default:
		p, err := sched.New(r.policy)
		if err != nil {
			return Result{}, err
		}
		return engine.RunContext(ctx, cfg, p)
	}
}

// resume continues an interrupted checkpointed run from the checkpoint
// file. cfg must describe the same run the file records: its identity
// fields (space, seed, GPU count, stream length, jitter seed) are
// verified, and with a training config so is the committed prefix's
// weight checksum. The suffix then executes with the checkpoint's cursor
// as its sequence base and the next incarnation's fault schedule; the
// Result covers the suffix only (Result.BaseSeq is the cursor). weightAt
// is as for run: nil verifies by retraining the prefix, a supervised
// job's stands at the cursor it last checksummed.
func (r *Runner) resume(ctx context.Context, cfg Config, weightAt func(int) uint64) (Result, error) {
	r.applyOverrides(&cfg)
	full := cfg.ResolveSubnets()
	weightAt = r.weightFn(full, weightAt) // one checkpointer: the verified prefix is not retrained for the first cut
	ck, err := r.resumePoint(cfg, len(full), weightAt)
	if err != nil {
		return Result{}, err
	}
	if ck.Cursor == len(full) {
		// Nothing left to run: the crash landed after the final commit.
		return Result{BaseSeq: ck.Cursor}, nil
	}
	return r.runCheckpointed(ctx, cfg.ResumeAt(full, ck.Cursor, ck.Incarnation), weightAt, ck)
}

// identity is the checkpoint identity of a run of n subnets at cfg: the
// fields a resume verifies, plus the fault seed it runs under.
func (r *Runner) identity(cfg Config, n int) fault.Checkpoint {
	return fault.Checkpoint{
		Space: cfg.Space.Name, Seed: cfg.Seed, GPUs: cfg.Spec.GPUs,
		NumSubnets: n, FaultSeed: r.faultSeed(), JitterSeed: cfg.JitterSeed,
	}
}

// resumePoint loads the checkpoint file and checks that it continues
// the run of n subnets cfg describes (identity, and with weightAt the
// committed prefix's weight checksum). It returns the file's state as
// the resumed recorder's starting point, re-stamped with this run's
// fault seed and depth: an elastic resume re-partitions the suffix, and
// the rewritten identity persists the depth actually running.
func (r *Runner) resumePoint(cfg Config, n int, weightAt func(int) uint64) (fault.Checkpoint, error) {
	if r.ckptPath == "" {
		return fault.Checkpoint{}, errors.New("naspipe: resume requires a checkpoint path")
	}
	ck, err := fault.Load(r.ckptPath)
	if err == nil {
		err = ck.VerifyResume(r.identity(cfg, n), r.elastic, weightAt)
	}
	if err != nil {
		return fault.Checkpoint{}, fmt.Errorf("naspipe: resume: %w", err)
	}
	ck.FaultSeed, ck.GPUs = r.faultSeed(), cfg.Spec.GPUs
	return ck, nil
}

// applyOverrides folds the Runner's trace and fault overrides into a run
// config; shared by run and resume.
func (r *Runner) applyOverrides(cfg *Config) {
	if r.traceSet {
		cfg.RecordTrace = r.trace
	}
	if r.executor == ExecutorConcurrent && r.faults != nil {
		cfg.Faults = r.faults
	}
}

// faultSeed reports the active fault plan's seed for checkpoint identity.
func (r *Runner) faultSeed() uint64 {
	if r.faults == nil {
		return 0
	}
	return r.faults.Seed
}

// weightFn returns the prefix weight checksum function over the complete
// global subnet stream: shared when the caller has one, else a fresh
// Checkpointer's (nil without a training config).
func (r *Runner) weightFn(full []supernet.Subnet, shared func(int) uint64) func(cursor int) uint64 {
	if r.trainCfg == nil || shared != nil {
		return shared
	}
	return prefixChecksummer(*r.trainCfg, full)
}

// prefixChecksummer is a variable so tests can watch Checkpointers built.
var prefixChecksummer = func(tc train.Config, full []supernet.Subnet) func(int) uint64 {
	return train.NewCheckpointer(tc, full).ChecksumAt
}

// openRecorder starts a file recorder at ident and persists that state
// at once, so a crash before the first cut still leaves a resumable file.
func (r *Runner) openRecorder(ident fault.Checkpoint, weightFn func(int) uint64) (*fault.FileRecorder, error) {
	rec := fault.NewFileRecorder(r.ckptPath, ident, r.ckptEvery, weightFn)
	if err := rec.Init(); err != nil {
		return nil, fmt.Errorf("naspipe: checkpoint init: %w", err)
	}
	return rec, nil
}

// runCheckpointed executes a concurrent run with a file recorder wired
// to the engine's consistency cuts. weightFn gives a cut's prefix weight
// checksum (nil = none); the recorder's writer calls it once per saved
// cut, off the pipeline. ident seeds the recorder with the run identity
// plus, on resume, the starting cursor and incarnation. Every return
// path ends in one synchronous recorder edge, so the file holds the
// latest committed cut and no writer outlives the incarnation: Bump after
// an injected crash or an interruption (signal, watchdog, deadline), so
// the next resume rolls a fresh fault schedule — an incarnation-0 wedge
// that forced the interruption cannot refire — and Flush otherwise.
func (r *Runner) runCheckpointed(ctx context.Context, cfg Config, weightFn func(int) uint64, ident fault.Checkpoint) (Result, error) {
	rec, err := r.openRecorder(ident, weightFn)
	if err != nil {
		return Result{}, err
	}
	cfg.Checkpoint = rec
	res, err := engine.RunConcurrent(ctx, cfg)
	edge, doing := rec.Flush, "flushing the checkpoint"
	if interrupted(ctx, err) {
		edge, doing = rec.Bump, "recording the ended incarnation"
	}
	if eerr := edge(); eerr != nil && !errors.Is(err, eerr) {
		if err != nil {
			eerr = fmt.Errorf("%w (run ended with: %v)", eerr, err)
		}
		err = fmt.Errorf("naspipe: %s: %w", doing, eerr)
	}
	res.CheckpointStats = rec.Stats()
	return res, err
}

// interrupted reports whether err ended a run that its checkpoint can
// continue: an injected crash, or any error once ctx ended (signal,
// watchdog, deadline). runCheckpointed bumps the incarnation on it and
// ExitCodeOf maps it to ExitResumable, so a run and its exit code agree
// on what is resumable.
func interrupted(ctx context.Context, err error) bool {
	var crash *fault.CrashError
	return errors.As(err, &crash) || (err != nil && ctx.Err() != nil)
}
