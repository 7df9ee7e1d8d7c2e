package naspipe

import (
	"context"
	"errors"
	"fmt"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/parallel"
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

// Runner is the configured entry point for pipeline training runs. Build
// one with NewRunner and functional options; the zero configuration is
// the paper's default (CSP policy on the simulated plane):
//
//	r, err := naspipe.NewRunner(
//	        naspipe.WithPolicy("naspipe"),
//	        naspipe.WithExecutor(naspipe.ExecutorConcurrent),
//	        naspipe.WithTrace(true),
//	)
//	res, err := r.Run(ctx, cfg)
//
// A Runner is immutable after construction and safe for concurrent use;
// it builds a fresh policy instance per run.
type Runner struct {
	policy      string
	executor    ExecutorKind
	trace       bool
	traceSet    bool
	parallelism int
	cacheFactor float64
	cacheSet    bool
	predictor   bool

	faults    *fault.Plan
	ckptPath  string
	ckptEvery int
	trainCfg  *train.Config
	elastic   bool
}

// RunnerOption configures a Runner under construction.
type RunnerOption func(*Runner)

// WithPolicy selects the scheduling policy by name (see PolicyNames).
// Default: "naspipe".
func WithPolicy(name string) RunnerOption {
	return func(r *Runner) { r.policy = name }
}

// WithExecutor selects the execution plane. Default: ExecutorSimulated.
func WithExecutor(kind ExecutorKind) RunnerOption {
	return func(r *Runner) { r.executor = kind }
}

// WithTrace forces parameter-access trace recording on or off for every
// run, overriding Config.RecordTrace. Unset, Config.RecordTrace decides.
func WithTrace(record bool) RunnerOption {
	return func(r *Runner) { r.trace = record; r.traceSet = true }
}

// WithParallelism bounds the worker pool RunMany uses to fan out
// independent runs. Zero (the default) means GOMAXPROCS.
func WithParallelism(n int) RunnerOption {
	return func(r *Runner) { r.parallelism = n }
}

// WithCache gives every concurrent-plane stage a prefetching layer cache
// provisioned at factor × the stage's average subnet-partition footprint
// (the paper's configuration is 3: executing + evicting + prefetched
// subnet). Factor 0 disables the cache. Overrides Config.ConcurrentMem.
// Concurrent executor only.
func WithCache(factor float64) RunnerOption {
	return func(r *Runner) { r.cacheFactor = factor; r.cacheSet = true }
}

// WithPredictor enables the Algorithm 3 context predictor on the
// concurrent plane: each stage forecasts upcoming tasks (including
// pending-backward records carried upstream with gradients) and prefetches
// their contexts. Requires a cache; if WithCache is not given, the paper's
// factor 3 is used. Concurrent executor only.
func WithPredictor(on bool) RunnerOption {
	return func(r *Runner) { r.predictor = on }
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
// pipeline's committed frontier advances, and enables Resume from that
// file. Run starts fresh (overwriting path); Resume continues from it.
// Concurrent executor only.
func WithCheckpoint(path string) RunnerOption {
	return func(r *Runner) { r.ckptPath = path }
}

// WithCheckpointEvery makes one cut in n cursor advances due for the
// checkpoint writer (default 1 = every advance; the final cut is always
// saved). The writer group-commits — it saves the latest due cut, one
// save at a time, off the pipeline — so this only bounds the write rate
// on media faster than the commit rate. Requires WithCheckpoint.
func WithCheckpointEvery(n int) RunnerOption {
	return func(r *Runner) { r.ckptEvery = n }
}

// WithCheckpointTraining attaches a numeric training config to the
// checkpoint plane: every saved checkpoint then carries the FNV-64
// weight checksum of the committed sequential prefix, and Resume
// verifies the stream against it before continuing. Requires
// WithCheckpoint; the incremental training steps up to a cut run on the
// checkpoint writer, once per saved cut, off the pipeline's stage 0.
func WithCheckpointTraining(tc TrainConfig) RunnerOption {
	return func(r *Runner) { r.trainCfg = &tc }
}

// WithElasticResume allows Resume to re-partition an interrupted run
// across a different GPU count than the checkpoint recorded: the GPU
// identity check is relaxed, the suffix is re-partitioned at the
// config's depth, and the checkpoint is rewritten to the new depth.
// Legal under CSP — Definition 1 orders parameter accesses by subnet
// sequence, not stage count, so the re-partitioned suffix still
// composes bitwise with the committed prefix. The supervision plane's
// elastic degraded-mode recovery requires it. Requires WithCheckpoint.
func WithElasticResume() RunnerOption {
	return func(r *Runner) { r.elastic = true }
}

// NewRunner validates the option set and returns an immutable Runner.
// Validation is the Runner's init, which the JobSpec lowering runs too,
// so the functional options, the CLI flag sets, and the service API all
// enforce exactly the same rules.
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

// init checks every cross-option invariant, then fills the defaults.
// Errors are *specErr, so both NewRunner and JobSpec.Validate surface
// the offending field.
func (r *Runner) init() error {
	if _, err := sched.New(r.policy); err != nil {
		return &specErr{Field: "policy", Msg: err.Error()}
	}
	if r.executor != ExecutorSimulated && r.executor != ExecutorConcurrent {
		return &specErr{Field: "executor", Msg: fmt.Sprintf("unknown executor %v", r.executor)}
	}
	if r.executor == ExecutorConcurrent && r.policy != "naspipe" {
		return &specErr{Field: "policy", Msg: fmt.Sprintf("the concurrent executor implements CSP only; policy %q requires the simulated executor", r.policy)}
	}
	if r.parallelism < 0 {
		return &specErr{Field: "parallelism", Msg: fmt.Sprintf("negative parallelism %d", r.parallelism)}
	}
	if r.cacheSet && r.cacheFactor < 0 {
		return &specErr{Field: "cache_factor", Msg: fmt.Sprintf("negative cache factor %v", r.cacheFactor)}
	}
	if (r.cacheSet || r.predictor) && r.executor != ExecutorConcurrent {
		return &specErr{Field: "cache_factor", Msg: fmt.Sprintf("the cache and predictor configure the concurrent memory plane; the %v executor has its own memory model", r.executor)}
	}
	if r.predictor && r.cacheSet && r.cacheFactor == 0 {
		return &specErr{Field: "predictor", Msg: "the predictor requires a cache; cache factor 0 disables it"}
	}
	if (r.faults != nil || r.ckptPath != "" || r.ckptEvery != 0 || r.trainCfg != nil) && r.executor != ExecutorConcurrent {
		return &specErr{Field: "faults", Msg: fmt.Sprintf("faults/checkpoint/training configure the concurrent execution plane; the %v executor has no goroutines to crash or resume", r.executor)}
	}
	if r.faults != nil {
		if err := r.faults.Validate(); err != nil {
			return &specErr{Field: "faults", Msg: err.Error()}
		}
	}
	if r.ckptEvery < 0 {
		return &specErr{Field: "checkpoint_every", Msg: fmt.Sprintf("negative checkpoint interval %d", r.ckptEvery)}
	}
	if (r.ckptEvery != 0 || r.elastic) && r.ckptPath == "" {
		return &specErr{Field: "checkpoint", Msg: "checkpoint_every/elastic refine a checkpoint path, which is not set"}
	}
	// trainCfg without a checkpoint path has nothing to checksum.
	if r.trainCfg != nil && r.ckptPath == "" {
		return &specErr{Field: "checkpoint", Msg: "WithCheckpointTraining refines WithCheckpoint, which is not set"}
	}
	if r.predictor && !r.cacheSet {
		r.cacheFactor, r.cacheSet = 3, true // the paper's default footprint
	}
	return nil
}

// Run executes one pipeline training run on the configured plane. It
// honors ctx between pipeline steps; on cancellation it returns the
// partial Result together with ctx.Err().
//
// With WithCheckpoint, Run starts fresh — it overwrites the checkpoint
// file with cursor 0 and persists cuts as the run commits subnets. A
// fault-injected crash surfaces as a *CrashError after the crash
// incarnation has been recorded, so a subsequent Resume continues where
// the committed frontier stopped.
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

// Resume continues an interrupted checkpointed run from the file set
// with WithCheckpoint. cfg must describe the same run handed to Run —
// the checkpoint's identity fields (space, seed, GPU count, stream
// length, jitter seed) are verified against it, and with
// WithCheckpointTraining the recorded prefix weight checksum is
// verified by retraining the committed prefix. The suffix then executes
// with the checkpoint's cursor as its sequence base and the next crash
// incarnation's fault schedule; the returned Result covers the suffix
// only (Result.BaseSeq tells how many subnets the checkpoint had
// already committed). Resume may itself crash under an aggressive fault
// plan — call it in a loop until the error is no longer a *CrashError.
func (r *Runner) Resume(ctx context.Context, cfg Config) (Result, error) {
	return r.resume(ctx, cfg, nil)
}

// resume is Resume on weightAt, as run: nil verifies by retraining the
// prefix, a supervised job's stands at the cursor it last checksummed.
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
		return fault.Checkpoint{}, errors.New("naspipe: resume requires a checkpoint path (WithCheckpoint)")
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

// applyOverrides folds the Runner's option overrides into a run config;
// shared by Run and Resume.
func (r *Runner) applyOverrides(cfg *Config) {
	if r.traceSet {
		cfg.RecordTrace = r.trace
	}
	if r.executor == ExecutorConcurrent {
		if r.cacheSet {
			cfg.ConcurrentMem = engine.MemPlaneConfig{
				CacheFactor: r.cacheFactor,
				Predictor:   r.predictor,
			}
		}
		if r.faults != nil {
			cfg.Faults = r.faults
		}
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
// Checkpointer's (nil without WithCheckpointTraining).
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
// the next Resume rolls a fresh fault schedule — an incarnation-0 wedge
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

// RunMany fans the configurations out over a bounded worker pool (see
// WithParallelism) and returns results in input order — deterministically,
// regardless of worker count or completion order. The first error by
// input index is returned; on cancellation the partial results come back
// with ctx.Err().
func (r *Runner) RunMany(ctx context.Context, cfgs []Config) ([]Result, error) {
	workers := parallel.Workers(r.parallelism, len(cfgs))
	return parallel.Map(ctx, workers, len(cfgs), func(i int) (Result, error) {
		return r.Run(ctx, cfgs[i])
	})
}
