package naspipe

import (
	"context"
	"fmt"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/supervise"
)

// The supervision plane's public surface (see internal/supervise): a
// supervisor that drives Runner.Run/Resume incarnations through the
// running → degraded → recovering → done|failed health state machine,
// with watchdog stall detection, in-process auto-resume under a retry
// budget, and elastic degraded-mode recovery.
type (
	SuperviseConfig  = supervise.Config
	SuperviseReport  = supervise.Report
	SuperviseJob     = supervise.Job
	HealthState      = supervise.State
	HealthTransition = supervise.Transition
	Incident         = supervise.Incident
	WatchdogConfig   = supervise.WatchdogConfig
	StallError       = supervise.StallError
	StallDiagnosis   = supervise.StallDiagnosis
	GiveUpError      = supervise.GiveUpError
	RunProbe         = engine.RunProbe
	StageHealth      = engine.StageHealth
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
// exponential backoff, crash-loop give-up, and (when sc.ElasticAfter is
// set and the Runner has WithElasticResume) elastic halving of the
// pipeline depth after repeated same-stage incidents.
//
// Requires the concurrent executor and WithCheckpoint. The returned
// Report is non-nil on every path; the error contract follows
// supervise.Run — nil on completion, the context error on external
// interruption (resumable), *GiveUpError on budget exhaustion or crash
// loop, the underlying error otherwise.
func (r *Runner) RunSupervised(ctx context.Context, cfg Config, sc SuperviseConfig) (Result, *SuperviseReport, error) {
	job, err := r.superviseJob(cfg, sc, false)
	if err != nil {
		return Result{}, &SuperviseReport{FinalState: supervise.Failed}, err
	}
	return supervise.Run(ctx, sc, job)
}

// ResumeSupervised continues an interrupted checkpointed run under the
// supervision plane: every incarnation, including the first, resumes
// from the checkpoint file. Same requirements and contract as
// RunSupervised.
func (r *Runner) ResumeSupervised(ctx context.Context, cfg Config, sc SuperviseConfig) (Result, *SuperviseReport, error) {
	job, err := r.superviseJob(cfg, sc, true)
	if err != nil {
		return Result{}, &SuperviseReport{FinalState: supervise.Failed}, err
	}
	return supervise.Run(ctx, sc, job)
}

// superviseJob validates the runner/config pairing and builds the
// supervise.Job closing over it.
func (r *Runner) superviseJob(cfg Config, sc SuperviseConfig, resuming bool) (SuperviseJob, error) {
	if r.executor != ExecutorConcurrent {
		return SuperviseJob{}, fmt.Errorf("naspipe: supervision wraps the concurrent executor; the %v executor has no incarnations to supervise", r.executor)
	}
	if r.ckptPath == "" {
		return SuperviseJob{}, fmt.Errorf("naspipe: supervision requires WithCheckpoint — recovery resumes from it")
	}
	if sc.ElasticAfter > 0 && !r.elastic {
		return SuperviseJob{}, fmt.Errorf("naspipe: SuperviseConfig.ElasticAfter needs a Runner built WithElasticResume")
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
	job := SuperviseJob{
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
