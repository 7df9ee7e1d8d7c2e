package naspipe

import (
	"context"
	"errors"
	"fmt"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/supernet"
	"naspipe/internal/supervise"
)

// The supervision plane's public surface (see internal/supervise): a
// supervisor that drives a job's incarnations through the
// running → degraded → recovering → done|failed health state machine,
// with watchdog stall detection, in-process auto-resume under a retry
// budget, and elastic degraded-mode recovery.
type (
	SuperviseConfig  = supervise.Config
	SuperviseReport  = supervise.Report
	HealthState      = supervise.State
	HealthTransition = supervise.Transition
)

// Health states, re-exported for callers switching on Report.FinalState.
const (
	HealthRunning    = supervise.Running
	HealthDegraded   = supervise.Degraded
	HealthRecovering = supervise.Recovering
	HealthDone       = supervise.Done
	HealthFailed     = supervise.Failed
)

// DefaultSuperviseConfig returns the supervisor defaults (16 restarts,
// 5ms–250ms backoff, crash-loop window 3, watchdog on at 2s/2ms,
// elasticity off) for CLIs to surface as flag defaults.
func DefaultSuperviseConfig() SuperviseConfig { return supervise.Defaults() }

// RunSupervised executes the configuration under the supervision plane:
// a fresh checkpointed run whose crashes and watchdog-diagnosed stalls
// are caught in-process and resumed from the committed cursor, with
// exponential backoff and crash-loop give-up. Elastic halving of the
// pipeline depth (sc.ElasticAfter) needs the elastic resume only a
// JobSpec lowers; run such a job with RunJob.
//
// Requires the concurrent executor and WithCheckpoint. The returned
// Report is non-nil on every path; the error contract follows
// supervise.Run — nil on completion, the context error on external
// interruption (resumable), a *supervise.GiveUpError on budget
// exhaustion or crash loop, the underlying error otherwise.
func (r *Runner) RunSupervised(ctx context.Context, cfg Config, sc SuperviseConfig) (Result, *SuperviseReport, error) {
	var err error
	switch {
	case r.executor != ExecutorConcurrent:
		err = fmt.Errorf("naspipe: supervision wraps the concurrent executor; the %v executor has no incarnations to supervise", r.executor)
	case r.ckptPath == "":
		err = fmt.Errorf("naspipe: supervision requires a checkpoint path — recovery resumes from it")
	case sc.ElasticAfter > 0 && !r.elastic:
		err = fmt.Errorf("naspipe: SuperviseConfig.ElasticAfter needs elastic resume, which a JobSpec sets (supervise.elastic_after); run it with RunJob")
	default:
		return (&Job{r: r, cfg: cfg}).drive(ctx, false, &sc, engine.RunConcurrent)
	}
	return Result{}, &SuperviseReport{FinalState: supervise.Failed}, err
}

// RunJob is the one way a JobSpec runs in this process: the CLIs, the
// scenario plane and the service scheduler run every JobSpec through
// it. It validates the spec and runs the job's incarnations on this
// process's executor through the recovery loop the fleet coordinator
// shares (Job.RunSupervised) — as one incarnation or, when
// spec.Supervise is set, under supervise.Run; resume starts the first
// incarnation from the spec's checkpoint. hooks carries what callers
// differ in — Telemetry (one bus for engine events and health
// transitions alike: it goes on the lowered Config), Log, Observer and
// OnIncident — and nothing else is read from it: every budget comes
// from the spec. A completed job whose spec sets Verify is held to the
// sequential reference by Job.Verify, and its Result carries the
// checksum. The Report is nil for an unsupervised job; ExitCodeOf
// classifies the error.
func RunJob(ctx context.Context, spec JobSpec, resume bool, hooks SuperviseConfig) (Result, *SuperviseReport, error) {
	j, err := LowerJob(spec)
	if err != nil {
		return Result{}, nil, err
	}
	j.cfg.Telemetry = hooks.Telemetry
	switch {
	case spec.Supervise != nil:
		return j.RunSupervised(ctx, resume, hooks, engine.RunConcurrent)
	case j.r.executor != ExecutorConcurrent && !resume:
		res, err := j.r.Run(ctx, j.cfg) // the simulator has no incarnations
		return res, nil, err
	}
	return j.drive(ctx, resume, nil, engine.RunConcurrent)
}

// RunSupervised runs the job under the supervision plane with exec as
// the executor of every incarnation: the spec's supervise block (the
// defaults when it has none) with hooks' Telemetry, Log, Observer and
// OnIncident; resume starts from the spec's checkpoint. It is how a
// driver that runs incarnations its own way — the fleet coordinator,
// whose exec launches stage workers — shares RunJob's recovery loop.
// exec reads the incarnation from the Config it is handed: SeqBase is
// the committed cursor it starts at, FaultIncarnation its fault epoch,
// Spec.GPUs the supervisor's depth, Probe the health probe to publish
// to, and Checkpoint the recorder its consistency cuts go to.
func (j *Job) RunSupervised(ctx context.Context, resume bool, hooks SuperviseConfig, exec func(context.Context, Config) (Result, error)) (Result, *SuperviseReport, error) {
	sc, ok := j.Spec.SuperviseConfig()
	if !ok {
		sc = supervise.Defaults()
	}
	sc.Telemetry, sc.Log, sc.Observer, sc.OnIncident = hooks.Telemetry, hooks.Log, hooks.Observer, hooks.OnIncident
	return j.drive(ctx, resume, &sc, exec)
}

// drive is the one recovery loop. The job's recorder is opened once,
// before the first incarnation and outside the watchdog, so a slow
// prefix retrain is no stall: fresh, or resuming behind the
// VerifyResume guard, whose refusal fails the job (supervised, as a
// non-recoverable first incarnation); a job with no checkpoint path
// keeps its cursor in a memory-only recorder. Every incarnation runs the suffix from the
// recorder's committed cursor under its incarnation number, at the
// supervisor's depth and probe, and ends in one synchronous recorder
// edge, so the file holds the latest committed cut and no writer
// outlives it: Bump when it was interrupted (an injected crash, or its
// ctx ended: signal, watchdog, deadline), so the next one draws a fresh
// fault schedule and an incarnation-pinned crash or wedge cannot
// refire; Flush otherwise. sc nil runs one incarnation unsupervised,
// and a job that then neither keeps a checkpoint nor resumes runs exec
// with no recorder at all. A completed job is held to the spec's Verify.
func (j *Job) drive(ctx context.Context, resume bool, sc *SuperviseConfig, exec func(context.Context, Config) (Result, error)) (Result, *SuperviseReport, error) {
	cfg := j.EngineConfig()
	cfg.Subnets = cfg.ResolveSubnets()
	full := cfg.Subnets
	j = &Job{Spec: j.Spec, r: j.r, cfg: cfg} // incarnations and Verify share one sampled stream
	var rec *fault.FileRecorder
	var err error
	if sc != nil || resume || j.r.ckptPath != "" {
		rec, err = j.openCheckpoint(full, resume)
	}
	if err != nil && sc == nil {
		return Result{}, nil, err
	}
	run := func(ctx context.Context, gpus int, probe *engine.RunProbe) (Result, error) {
		ck := rec.Committed()
		if ck.Cursor == len(full) {
			// Nothing left to run: the crash landed after the final commit.
			return Result{BaseSeq: ck.Cursor, CheckpointStats: rec.Stats()}, nil
		}
		c := cfg.ResumeAt(full, ck.Cursor, ck.Incarnation)
		c.Spec.GPUs, c.Probe, c.Checkpoint = gpus, probe, rec
		res, err := exec(ctx, c)
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
	var res Result
	var rep *SuperviseReport
	switch {
	case sc != nil:
		job := supervise.Job{
			Run:    run,
			Cursor: func() int { return rec.Committed().Cursor },
			GPUs:   cfg.Spec.GPUs, Total: len(full),
		}
		if refused := err; refused != nil {
			// The refusal is the first incarnation, failing at once (well
			// inside a watchdog tick): the supervisor records it as
			// non-recoverable, and the recorder never opened has cursor 0.
			job.Run = func(context.Context, int, *engine.RunProbe) (Result, error) { return Result{}, refused }
			job.Cursor = func() int { return 0 }
		}
		res, rep, err = supervise.Run(ctx, *sc, job)
	case rec != nil:
		res, err = run(ctx, cfg.Spec.GPUs, nil)
	default:
		res, err = exec(ctx, cfg)
	}
	if err == nil {
		res, err = j.Verify(res)
	}
	return res, rep, err
}

// openCheckpoint opens the job's recorder over full, its resolved
// stream: at cursor 0 or, resuming, at the file's cursor and
// incarnation once the file has passed the resume guard (identity, and
// with a training config the committed prefix's weight checksum). The
// file's identity is re-stamped with this run's fault seed and declared
// depth. Resuming without a checkpoint path is an error.
func (j *Job) openCheckpoint(full []supernet.Subnet, resume bool) (*fault.FileRecorder, error) {
	r := j.r
	weightAt := r.weightFn(full) // nil without a path: a job lowers no train config then
	ck := r.identity(j.cfg, len(full))
	if resume {
		if r.ckptPath == "" {
			return nil, errors.New("naspipe: resume requires a checkpoint path")
		}
		file, err := fault.Load(r.ckptPath)
		if err == nil {
			err = file.VerifyResume(ck, r.elastic, weightAt)
		}
		if err != nil {
			return nil, fmt.Errorf("naspipe: resume: %w", err)
		}
		file.FaultSeed, file.GPUs = ck.FaultSeed, ck.GPUs
		ck = file
	}
	rec := fault.NewFileRecorder(r.ckptPath, ck, r.ckptEvery, weightAt)
	if err := rec.Init(); err != nil {
		return nil, fmt.Errorf("naspipe: checkpoint init: %w", err)
	}
	return rec, nil
}
