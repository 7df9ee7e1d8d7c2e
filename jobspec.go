package naspipe

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"naspipe/internal/data"
	"naspipe/internal/fault"
	"naspipe/internal/train"
)

// JobSpecVersion is the current JobSpec wire version. A spec with an
// empty APIVersion is taken to mean the current version; anything else
// must match exactly — version negotiation is explicit, never silent.
const JobSpecVersion = "v1"

// ExitCode is the process exit-code contract shared by every naspipe
// CLI and, through the service plane, by daemon job states (see
// JobSpec and internal/service). CI scripts, operators, and the
// supervision plane all key off these four values — never invent a
// fifth without updating the package-level contract docs.
type ExitCode int

const (
	// ExitOK: the run completed, and where a verification applies
	// (resume composition, predictor hit rate, telemetry overhead gate)
	// it passed.
	ExitOK ExitCode = 0
	// ExitFailure: the run or its verification failed, including a
	// supervisor give-up (*GiveUpError) — not resumable as-is.
	ExitFailure ExitCode = 1
	// ExitUsage: the invocation was malformed (bad flag, unknown space
	// or policy, invalid JobSpec) and nothing ran.
	ExitUsage ExitCode = 2
	// ExitResumable: the run was interrupted with a valid checkpoint on
	// disk — an injected crash without supervision, or SIGINT/SIGTERM
	// mid-run, either one with a checkpoint kept. Rerunning with -resume
	// (or POST /v1/jobs/{id}/resume) continues from the committed
	// frontier.
	ExitResumable ExitCode = 3
)

// ExitCodeOf is the one rule every CLI exits a run by: nil is ExitOK, a
// supervisor give-up ExitFailure, an injected crash or an ended ctx
// ExitResumable when checkpointed (a checkpoint holds the committed
// frontier), and anything else ExitFailure. The resumable case is the
// predicate a checkpointed run bumps its incarnation on, so the exit
// code never promises a -resume the checkpoint cannot keep.
func ExitCodeOf(ctx context.Context, err error, checkpointed bool) ExitCode {
	var giveUp *GiveUpError
	switch {
	case err == nil:
		return ExitOK
	case errors.As(err, &giveUp):
		return ExitFailure
	case checkpointed && interrupted(ctx, err):
		return ExitResumable
	}
	return ExitFailure
}

// String names the exit code for reports and API payloads.
func (c ExitCode) String() string {
	switch c {
	case ExitOK:
		return "ok"
	case ExitFailure:
		return "failure"
	case ExitUsage:
		return "usage"
	case ExitResumable:
		return "resumable"
	}
	return fmt.Sprintf("ExitCode(%d)", int(c))
}

// Duration is a time.Duration that round-trips through JSON as a
// human-readable string ("500ms", "2s") instead of nanosecond integers.
type Duration time.Duration

// MarshalJSON encodes the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or a bare integer
// nanosecond count (the encoding time.Duration would have used).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		dd, perr := time.ParseDuration(s)
		if perr != nil {
			return perr
		}
		*d = Duration(dd)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("duration must be a string like \"500ms\" or an integer nanosecond count")
	}
	*d = Duration(ns)
	return nil
}

// TrainSpec attaches the numeric (real-weights) training plane to a
// job: checkpoint prefix checksums when a checkpoint path is set, and
// the bitwise verification target when Verify is on.
type TrainSpec struct {
	// Dim is the model dimension of the numeric layers (0 = 12).
	Dim int `json:"dim,omitempty"`
	// BatchSize is items per subnet step (0 = 4).
	BatchSize int `json:"batch_size,omitempty"`
	// LR is the SGD learning rate (0 = 0.05).
	LR float64 `json:"lr,omitempty"`
	// Dataset names the synthetic workload: "WNMT" or "ImageNet"
	// ("" = WNMT).
	Dataset string `json:"dataset,omitempty"`
}

// SuperviseSpec opts a job into the supervision plane and overrides its
// defaults (see DefaultSuperviseConfig). Requires a checkpoint path and
// the concurrent executor.
type SuperviseSpec struct {
	// StallTimeout is the watchdog threshold: both progress signals flat
	// for this long declares a stall (0 = default 2s).
	StallTimeout Duration `json:"stall_timeout,omitempty"`
	// MaxRestarts bounds resume attempts across the whole run (0 = 16).
	MaxRestarts int `json:"max_restarts,omitempty"`
	// ElasticAfter halves the pipeline depth after this many consecutive
	// incidents attributed to one stage (0 = off). Implies elastic
	// resume.
	ElasticAfter int `json:"elastic_after,omitempty"`
	// CrashLoopWindow declares the run crash-looping after this many
	// consecutive restarts with no cursor advance (0 = default 3).
	// Scenario storms that crash before the first commit raise it.
	CrashLoopWindow int `json:"crash_loop_window,omitempty"`
	// Backoff/BackoffMax bound the exponential delay between restart
	// attempts (0 = defaults 5ms/250ms). Tight-loop test scenarios
	// shrink them to keep sweeps fast.
	Backoff    Duration `json:"backoff,omitempty"`
	BackoffMax Duration `json:"backoff_max,omitempty"`
}

// JobSpec is the canonical, JSON-round-trippable description of one
// search job: the single configuration surface shared by the Go API
// (FromSpec → NewRunner), the CLI flag sets (internal/clicfg), and the
// naspiped service wire format (POST /v1/jobs). Adding a knob here adds
// it everywhere at once; the three surfaces cannot drift.
//
// The zero value is not valid — at minimum Space, GPUs, and Subnets
// must be set. Validate reports the first violated invariant with the
// offending field name (the service maps it to a structured 400).
type JobSpec struct {
	// APIVersion pins the spec format; "" means JobSpecVersion.
	APIVersion string `json:"api_version,omitempty"`
	// Tenant scopes the job for the service plane's quotas and listing;
	// ignored by the CLIs ("" = the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Name is a free-form operator label.
	Name string `json:"name,omitempty"`

	// Space is a Table 1 search-space name ("NLP.c1", "CV.c3", ...).
	Space string `json:"space"`
	// ScaleBlocks/ScaleChoices optionally re-geometry the space for the
	// numeric plane (Space.Scaled); both or neither.
	ScaleBlocks  int `json:"scale_blocks,omitempty"`
	ScaleChoices int `json:"scale_choices,omitempty"`
	// Policy is the scheduling policy ("" = "naspipe"; see PolicyNames).
	Policy string `json:"policy,omitempty"`
	// Executor selects the execution plane: "simulated" or "concurrent"
	// ("" = "simulated").
	Executor string `json:"executor,omitempty"`
	// GPUs is the pipeline depth.
	GPUs int `json:"gpus"`
	// Subnets is the exploration-stream length.
	Subnets int `json:"subnets"`
	// Seed drives SPOS subnet sampling.
	Seed uint64 `json:"seed"`
	// Window bounds in-flight subnets (0 = engine default).
	Window int `json:"window,omitempty"`
	// Jitter perturbs per-task compute timing by a deterministic factor
	// in [1-j, 1+j] keyed by JitterSeed; concurrent tasks really sleep.
	Jitter     float64 `json:"jitter,omitempty"`
	JitterSeed uint64  `json:"jitter_seed,omitempty"`
	// StageSpeeds models a heterogeneous cluster: stage k's tasks take
	// StageSpeeds[k]× their baseline compute time (1.0 = homogeneous,
	// 2.0 = a straggler at half speed). Empty means homogeneous;
	// otherwise one positive factor per GPU. Like Jitter this perturbs
	// timing only — CSP keeps the training result bitwise invariant.
	StageSpeeds []float64 `json:"stage_speeds,omitempty"`

	// Trace forces parameter-access trace recording on or off; nil
	// leaves it to the engine config (and Verify forces it on).
	Trace *bool `json:"trace,omitempty"`
	// CacheFactor sizes the concurrent plane's per-stage layer cache as
	// a multiple of the stage's average subnet footprint; nil leaves the
	// cache unconfigured, 0 disables it. Concurrent executor only.
	CacheFactor *float64 `json:"cache_factor,omitempty"`
	// Predictor enables the Algorithm 3 context predictor (requires a
	// non-zero cache; defaults the factor to 3 when unset).
	Predictor bool `json:"predictor,omitempty"`

	// Faults is a deterministic fault-plan spec, e.g.
	// "seed=7,drop=0.1,crashat=2:9:F" (see ParseFaultPlan). Concurrent
	// executor only.
	Faults string `json:"faults,omitempty"`
	// Checkpoint persists crash-consistent checkpoints to this path; the
	// service plane overrides it with the job's own state file.
	Checkpoint string `json:"checkpoint,omitempty"`
	// CheckpointEvery throttles saves to one per n cursor advances.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Elastic permits resuming across a different GPU count
	// (WithElasticResume); implied by Supervise.ElasticAfter.
	Elastic bool `json:"elastic,omitempty"`

	// Train attaches the numeric training plane (prefix checksums in
	// checkpoints; the reference for Verify).
	Train *TrainSpec `json:"train,omitempty"`
	// Supervise opts into in-process auto-resume of crashes and
	// watchdog-diagnosed stalls. Requires Checkpoint + concurrent.
	Supervise *SuperviseSpec `json:"supervise,omitempty"`
	// Verify re-derives the completed run's weights from its observed
	// trace and fails unless they are bitwise equal to the sequential
	// reference (Job.Verify). RunJob and the fleet coordinator honour it
	// and return the checksum in Result.Checksum. Requires Train and the
	// concurrent executor.
	Verify bool `json:"verify,omitempty"`
}

// specErr is a JobSpec validation failure pinned to one field, so API
// consumers get a structured "which field" answer instead of prose
// archaeology.
type specErr struct {
	Field string
	Msg   string
}

func (e *specErr) Error() string { return fmt.Sprintf("jobspec: field %q: %s", e.Field, e.Msg) }

// SpecField extracts the offending field name from a JobSpec validation
// error, unwrapping as needed ("" if err is not one).
func SpecField(err error) string {
	var e *specErr
	if errors.As(err, &e) {
		return e.Field
	}
	return ""
}

// SpecErrorf builds a field-attributed spec error of the shared type
// SpecField reads. Layered spec surfaces (the scenario compiler) use it
// so every configuration error in the system names its offending field
// identically, whether it came from a JobSpec, a CLI flag set, or a
// scenario file.
func SpecErrorf(field, format string, args ...any) error {
	return &specErr{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// executorKind resolves the spec's executor name.
func (s JobSpec) executorKind() (ExecutorKind, error) {
	switch s.Executor {
	case "", ExecutorSimulated.String():
		return ExecutorSimulated, nil
	case ExecutorConcurrent.String():
		return ExecutorConcurrent, nil
	}
	return 0, &specErr{Field: "executor", Msg: fmt.Sprintf("unknown executor %q (want %q or %q)", s.Executor, ExecutorSimulated, ExecutorConcurrent)}
}

// policyName resolves the spec's policy with its default.
func (s JobSpec) policyName() string {
	if s.Policy == "" {
		return "naspipe"
	}
	return s.Policy
}

// Validate checks the spec against every invariant the system holds:
// resolvable space and policy, executor/plane compatibility, cache and
// predictor constraints, fault-plan syntax, checkpoint refinements, and
// supervision/verification requirements. The first violation is
// returned as an error naming the offending JSON field (see SpecField).
func (s JobSpec) Validate() error {
	_, _, err := s.lower()
	return err
}

// lower is the one JobSpec lowering, so the one owner of every spec
// rule: it checks the rows only a spec has, parses the fault plan, and
// builds the Runner and engine Config the spec describes, the Runner
// checked by the init NewRunner runs. Validate, FromSpec, LowerJob and
// RunJob all come through here.
func (s JobSpec) lower() (*Runner, Config, error) {
	if err := s.check(); err != nil {
		return nil, Config{}, err
	}
	kind, _ := s.executorKind() // checked
	r := &Runner{
		policy:    s.policyName(),
		executor:  kind,
		predictor: s.Predictor,
		ckptPath:  s.Checkpoint,
		ckptEvery: s.CheckpointEvery,
		elastic:   s.Elastic || (s.Supervise != nil && s.Supervise.ElasticAfter > 0),
	}
	if s.Faults != "" {
		plan, err := fault.ParsePlan(s.Faults)
		if err != nil {
			return nil, Config{}, &specErr{Field: "faults", Msg: err.Error()}
		}
		r.faults = plan
	}
	if s.Trace != nil {
		r.trace, r.traceSet = *s.Trace, true
	}
	if s.CacheFactor != nil {
		r.cacheFactor, r.cacheSet = *s.CacheFactor, true
	}
	if tc, ok := s.TrainConfig(); ok && s.Checkpoint != "" {
		r.trainCfg = &tc
	}
	if err := r.init(); err != nil {
		return nil, Config{}, err
	}
	cfg, err := s.Config()
	return r, cfg, err
}

// check runs the rows only a spec has; the Runner's init checks the rest.
func (s JobSpec) check() error {
	if s.APIVersion != "" && s.APIVersion != JobSpecVersion {
		return &specErr{Field: "api_version", Msg: fmt.Sprintf("unsupported version %q (this build speaks %q)", s.APIVersion, JobSpecVersion)}
	}
	if s.Space == "" {
		return &specErr{Field: "space", Msg: "required (a Table 1 name like \"NLP.c1\")"}
	}
	if _, err := SpaceByName(s.Space); err != nil {
		return &specErr{Field: "space", Msg: err.Error()}
	}
	if (s.ScaleBlocks > 0) != (s.ScaleChoices > 0) {
		return &specErr{Field: "scale_blocks", Msg: "scale_blocks and scale_choices come together (both or neither)"}
	}
	if s.ScaleBlocks < 0 || s.ScaleChoices < 0 {
		return &specErr{Field: "scale_blocks", Msg: "negative scale geometry"}
	}
	if s.GPUs <= 0 {
		return &specErr{Field: "gpus", Msg: fmt.Sprintf("pipeline depth must be positive, got %d", s.GPUs)}
	}
	if s.Subnets <= 0 {
		return &specErr{Field: "subnets", Msg: fmt.Sprintf("stream length must be positive, got %d", s.Subnets)}
	}
	if s.Window < 0 {
		return &specErr{Field: "window", Msg: fmt.Sprintf("negative admission window %d", s.Window)}
	}
	if s.Jitter < 0 || s.Jitter >= 1 {
		return &specErr{Field: "jitter", Msg: fmt.Sprintf("jitter must be in [0, 1), got %v", s.Jitter)}
	}
	if len(s.StageSpeeds) > 0 && len(s.StageSpeeds) != s.GPUs {
		return &specErr{Field: "stage_speeds", Msg: fmt.Sprintf("want one speed factor per GPU (%d), got %d", s.GPUs, len(s.StageSpeeds))}
	}
	for k, v := range s.StageSpeeds {
		if !(v > 0) || math.IsInf(v, 0) {
			return &specErr{Field: "stage_speeds", Msg: fmt.Sprintf("stage %d speed factor %v; factors must be positive and finite", k, v)}
		}
	}
	kind, err := s.executorKind()
	if err != nil {
		return err
	}
	if s.Train != nil {
		if s.Train.Dim < 0 || s.Train.BatchSize < 0 {
			return &specErr{Field: "train", Msg: "negative dim or batch_size"}
		}
		if s.Train.Dataset != "" {
			if _, err := data.KindByName(s.Train.Dataset); err != nil {
				return &specErr{Field: "train.dataset", Msg: err.Error()}
			}
		}
	}
	if s.Supervise != nil {
		if s.Checkpoint == "" {
			return &specErr{Field: "supervise", Msg: "supervision requires a checkpoint path — recovery resumes from it"}
		}
		if kind != ExecutorConcurrent {
			return &specErr{Field: "supervise", Msg: "supervision wraps the concurrent executor"}
		}
		if s.Supervise.MaxRestarts < 0 || s.Supervise.ElasticAfter < 0 || s.Supervise.StallTimeout < 0 ||
			s.Supervise.CrashLoopWindow < 0 || s.Supervise.Backoff < 0 || s.Supervise.BackoffMax < 0 {
			return &specErr{Field: "supervise", Msg: "negative supervision parameter"}
		}
	}
	if s.Verify {
		if s.Train == nil {
			return &specErr{Field: "verify", Msg: "verification trains the sequential reference; attach a train spec"}
		}
		if kind != ExecutorConcurrent {
			return &specErr{Field: "verify", Msg: "verification replays the observed trace of a concurrent run"}
		}
		if s.Trace != nil && !*s.Trace {
			return &specErr{Field: "trace", Msg: "verify needs the observed trace; trace=false contradicts it"}
		}
	}
	return nil
}

// TrainConfig materializes the spec's training plane against its
// (scaled) space; ok is false when no train spec is attached.
func (s JobSpec) TrainConfig() (TrainConfig, bool) {
	if s.Train == nil {
		return TrainConfig{}, false
	}
	sp, err := s.space()
	if err != nil {
		return TrainConfig{}, false
	}
	kind := data.WNMT
	if s.Train.Dataset != "" {
		if k, kerr := data.KindByName(s.Train.Dataset); kerr == nil {
			kind = k
		}
	}
	return train.Config{
		Space: sp, Dim: s.Train.Dim, Seed: s.Seed,
		BatchSize: s.Train.BatchSize, LR: float32(s.Train.LR),
		Dataset: kind,
	}, true
}

// SuperviseConfig materializes the spec's supervision plane over the
// package defaults; ok is false when the spec does not opt in.
func (s JobSpec) SuperviseConfig() (SuperviseConfig, bool) {
	if s.Supervise == nil {
		return SuperviseConfig{}, false
	}
	sc := DefaultSuperviseConfig()
	if s.Supervise.StallTimeout > 0 {
		sc.Watchdog.StallAfter = time.Duration(s.Supervise.StallTimeout)
	}
	if s.Supervise.MaxRestarts > 0 {
		sc.MaxRestarts = s.Supervise.MaxRestarts
	}
	if s.Supervise.CrashLoopWindow > 0 {
		sc.CrashLoopWindow = s.Supervise.CrashLoopWindow
	}
	if s.Supervise.Backoff > 0 {
		sc.BackoffBase = time.Duration(s.Supervise.Backoff)
	}
	if s.Supervise.BackoffMax > 0 {
		sc.BackoffMax = time.Duration(s.Supervise.BackoffMax)
	}
	sc.ElasticAfter = s.Supervise.ElasticAfter
	return sc, true
}

// space resolves and scales the spec's search space.
func (s JobSpec) space() (Space, error) {
	sp, err := SpaceByName(s.Space)
	if err != nil {
		return Space{}, &specErr{Field: "space", Msg: err.Error()}
	}
	if s.ScaleBlocks > 0 {
		sp = sp.Scaled(s.ScaleBlocks, s.ScaleChoices)
	}
	return sp, nil
}

// Config materializes the engine configuration the spec describes.
// Most callers want FromSpec, which also derives the Runner options.
func (s JobSpec) Config() (Config, error) {
	sp, err := s.space()
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Space: sp, Spec: DefaultCluster(s.GPUs),
		Seed: s.Seed, NumSubnets: s.Subnets,
		InflightLimit: s.Window,
		TimingJitter:  s.Jitter,
		JitterSeed:    s.JitterSeed,
		StageSpeeds:   s.StageSpeeds,
	}
	if s.Trace != nil {
		cfg.RecordTrace = *s.Trace
	}
	if s.Verify {
		cfg.RecordTrace = true
	}
	return cfg, nil
}

// FromSpec validates the spec and derives both halves of a run from it:
// the Runner options (executor, policy, cache, faults, checkpointing,
// elasticity) and the engine Config (space, cluster, stream, jitter,
// tracing). The options are the lowered Runner as one option, so an
// option appended after it (WithTelemetry, say) overrides it. RunJob
// runs a spec the way the CLIs, the scenario plane and the service do.
func FromSpec(s JobSpec) ([]RunnerOption, Config, error) {
	r, cfg, err := s.lower()
	if err != nil {
		return nil, Config{}, err
	}
	return []RunnerOption{func(dst *Runner) { *dst = *r }}, cfg, nil
}

// Job is a JobSpec lowered once: validated, its fault plan parsed, its
// Runner and engine Config built. Every rule the spec implies is read
// from a Job, never re-derived from the spec's fields: RunJob drives one
// in this process, the fleet coordinator and its stage workers drive one
// across processes.
type Job struct {
	Spec JobSpec
	r    *Runner
	cfg  Config
}

// LowerJob validates spec and lowers it to a Job.
func LowerJob(spec JobSpec) (*Job, error) {
	r, cfg, err := spec.lower()
	if err != nil {
		return nil, err
	}
	return &Job{Spec: spec, r: r, cfg: cfg}, nil
}

// EngineConfig is the engine configuration an incarnation of the job
// runs: the spec's Config with the Runner's overrides applied (tracing,
// the cache and predictor with their default factor, the fault plan).
func (j *Job) EngineConfig() Config {
	cfg := j.cfg
	j.r.applyOverrides(&cfg)
	return cfg
}

// OpenCheckpoint starts the job's checkpoint recorder for a driver that
// runs the incarnations itself, as the fleet coordinator does: fresh at
// cursor 0 or, resuming, at the file's cursor and incarnation once the
// file has passed Runner.Resume's guard. Identity and prefix weight
// function are the Runner's. The recorder is nil when the spec keeps no
// checkpoint; resuming one is an error.
func (j *Job) OpenCheckpoint(resume bool) (*fault.FileRecorder, error) {
	if j.r.ckptPath == "" && !resume {
		return nil, nil
	}
	full := j.cfg.ResolveSubnets()
	weightAt := j.r.weightFn(full, nil)
	ident := j.r.identity(j.cfg, len(full))
	if resume {
		var err error
		if ident, err = j.r.resumePoint(j.cfg, len(full), weightAt); err != nil {
			return nil, err
		}
	}
	return j.r.openRecorder(ident, weightAt)
}

// Verify holds a completed run to the spec's Verify: its weights — the
// committed prefix trained sequentially, the observed suffix replayed on
// it — must land bitwise on the sequential reference, and the returned
// Result carries that checksum. Without Verify, res comes back as is.
func (j *Job) Verify(res Result) (Result, error) {
	if !j.Spec.Verify {
		return res, nil
	}
	tc, _ := j.Spec.TrainConfig() // Verify requires a train spec
	sum, err := VerifyAgainstSequential(tc, j.cfg, res)
	res.Checksum = sum
	return res, err
}

// VerifyAgainstSequential checks the reproducibility contract on real
// weights: training the committed prefix [0, res.BaseSeq) sequentially
// and replaying the run's observed suffix trace on the same net must
// land bitwise on the uninterrupted sequential run's checksum. It
// returns that checksum on success. Job.Verify runs it for every spec
// that sets Verify: the check behind the CLIs' "resume verified" line,
// the scenario cells and the service plane's verified flag. The prefix
// is trained once: the replay runs on a copy of the net at BaseSeq, and
// the reference continues on the original.
func VerifyAgainstSequential(tc TrainConfig, cfg Config, res Result) (uint64, error) {
	full := cfg.ResolveSubnets()
	if res.BaseSeq < 0 || res.BaseSeq > len(full) {
		return 0, fmt.Errorf("naspipe: verify: resume base %d out of range [0, %d]", res.BaseSeq, len(full))
	}
	prefix := train.Sequential(tc, full[:res.BaseSeq])
	if res.BaseSeq == len(full) {
		return prefix.Checksum, nil
	}
	if res.ObservedTrace == nil {
		return 0, fmt.Errorf("naspipe: verify: the run recorded no observed trace (enable tracing)")
	}
	suffix := full[res.BaseSeq:]
	rep, err := train.ReplayOn(tc, prefix.Net.Clone(), suffix, res.ObservedTrace)
	if err != nil {
		return 0, err
	}
	got, want := rep.Checksum, train.SequentialOn(tc, prefix.Net, suffix).Checksum
	if got != want {
		return 0, fmt.Errorf("naspipe: verify: weights %016x diverge from sequential reference %016x", got, want)
	}
	return got, nil
}
