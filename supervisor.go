package naspipe

import (
	"context"
	"fmt"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/supervise"
)

// The supervision plane's public surface (see internal/supervise): a
// supervisor that drives a job's run and resume incarnations through the
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
// are caught in-process and resumed from the latest checkpoint, with
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
	return r.supervise(ctx, cfg, sc, false)
}

// supervise drives the job's incarnations through supervise.Run, the
// one recovery loop: the first incarnation runs fresh or, resuming,
// continues from the checkpoint like every later one.
func (r *Runner) supervise(ctx context.Context, cfg Config, sc SuperviseConfig, resuming bool) (Result, *SuperviseReport, error) {
	job, err := r.superviseJob(cfg, sc, resuming)
	if err != nil {
		return Result{}, &SuperviseReport{FinalState: supervise.Failed}, err
	}
	return supervise.Run(ctx, sc, job)
}

// RunJob is the one restart driver: the CLIs, the scenario plane and the
// service scheduler run every JobSpec through it. It validates the spec
// and builds its Runner, then runs the job as one incarnation or, when
// spec.Supervise is set, under supervise.Run; resume starts the first
// incarnation from the spec's checkpoint. hooks carries what callers
// differ in — Telemetry (one bus for engine events and health transitions
// alike: it goes on the lowered Config), Log, Observer and OnIncident —
// and nothing else is read from it: every budget comes from the spec. A
// completed job whose spec sets Verify is held to the sequential
// reference by Job.Verify, the check the fleet coordinator runs too, and
// its Result carries the checksum. The Report is nil for an unsupervised
// job; ExitCodeOf classifies the error.
func RunJob(ctx context.Context, spec JobSpec, resume bool, hooks SuperviseConfig) (Result, *SuperviseReport, error) {
	j, err := LowerJob(spec)
	if err != nil {
		return Result{}, nil, err
	}
	r := j.r
	j.cfg.Telemetry = hooks.Telemetry
	var res Result
	var rep *SuperviseReport
	if sc, supervised := spec.SuperviseConfig(); supervised {
		sc.Telemetry, sc.Log, sc.Observer, sc.OnIncident = hooks.Telemetry, hooks.Log, hooks.Observer, hooks.OnIncident
		res, rep, err = r.supervise(ctx, j.cfg, sc, resume)
	} else if resume {
		res, err = r.resume(ctx, j.cfg, nil)
	} else {
		res, err = r.Run(ctx, j.cfg)
	}
	if err == nil {
		res, err = j.Verify(res)
	}
	return res, rep, err
}

// superviseJob validates the runner/config pairing and builds the
// supervise.Job closing over it.
func (r *Runner) superviseJob(cfg Config, sc SuperviseConfig, resuming bool) (supervise.Job, error) {
	if r.executor != ExecutorConcurrent {
		return supervise.Job{}, fmt.Errorf("naspipe: supervision wraps the concurrent executor; the %v executor has no incarnations to supervise", r.executor)
	}
	if r.ckptPath == "" {
		return supervise.Job{}, fmt.Errorf("naspipe: supervision requires a checkpoint path — recovery resumes from it")
	}
	if sc.ElasticAfter > 0 && !r.elastic {
		return supervise.Job{}, fmt.Errorf("naspipe: SuperviseConfig.ElasticAfter needs elastic resume, which a JobSpec sets (supervise.elastic_after); run it with RunJob")
	}
	full := cfg.ResolveSubnets()
	// One Checkpointer for the job, as on the fleet coordinator: it stands
	// at the cursor the ended incarnation checksummed, so an in-process
	// resume does not retrain [0, cursor) — recovery cost is cursor-free.
	weightAt := r.weightFn(full, nil)
	var ckStats fault.RecorderStats // summed over the (sequential) incarnations
	// incarnation adapts run/resume into a supervised attempt: the closure
	// wires the supervisor's depth (elastic steps shrink it) and health
	// probe into the engine config.
	incarnation := func(attempt func(context.Context, Config, func(int) uint64) (Result, error)) supervise.Incarnation {
		return func(ctx context.Context, gpus int, probe *engine.RunProbe) (Result, error) {
			c := cfg
			c.Spec.GPUs = gpus
			c.Probe = probe
			res, err := attempt(ctx, c, weightAt)
			ckStats = ckStats.Add(res.CheckpointStats)
			res.CheckpointStats = ckStats
			return res, err
		}
	}
	job := supervise.Job{
		Run:    incarnation(r.run),
		Resume: incarnation(r.resume),
		Cursor: func() (int, error) {
			ck, err := fault.Load(r.ckptPath)
			if err != nil {
				return 0, err
			}
			return ck.Cursor, nil
		},
		GPUs:  cfg.Spec.GPUs,
		Total: len(full),
	}
	if resuming {
		job.Run = job.Resume
	}
	return job, nil
}
