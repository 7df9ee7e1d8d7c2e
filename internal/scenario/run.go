package scenario

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"naspipe"
	"naspipe/internal/distrib"
	"naspipe/internal/service"
)

// Options configures one scenario execution.
type Options struct {
	// StateDir roots the scenario's checkpoints and (for multi-job
	// scenarios) the service scheduler's per-job state. Required.
	StateDir string
	// Workers is the service executor-pool size for multi-job
	// scenarios (0 = 2).
	Workers int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Observed carries the wall-clock side of a scenario run: real, useful,
// and inherently nondeterministic — which is why it is returned beside
// the Cell instead of inside it. The harness prints it; the scorecard
// never contains it.
type Observed struct {
	// Wall is the concurrent pass's total wall time.
	Wall time.Duration
	// Recovery is the wall time from the first failure (crash or
	// watchdog fire) to completion; 0 when nothing failed.
	Recovery time.Duration
}

// Run executes one scenario end to end and scores it:
//
//  1. A fault-free pass on the simulated plane models the declared
//     world (GPUs, stage speeds, jitter, cache budget) and yields the
//     deterministic performance columns (throughput, bubble, cache).
//  2. The real pass runs every job supervised on the concurrent
//     executor under the declared storm — through naspipe.RunJob, a
//     distributed fleet, or the service Scheduler for multi-job
//     scenarios — and verifies each job's weights bitwise against the
//     sequential reference.
//  3. The Expect block's gates are applied; violations land in
//     Cell.Failures.
//
// The returned error reports infrastructure problems only (bad state
// dir, compile failure); a scenario that runs but fails its gates
// returns a Cell with Failures and a nil error.
func Run(ctx context.Context, s *Scenario, opt Options) (Cell, Observed, error) {
	if opt.StateDir == "" {
		return Cell{}, Observed{}, fmt.Errorf("scenario: Options.StateDir is required")
	}
	dir := filepath.Join(opt.StateDir, s.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Cell{}, Observed{}, err
	}
	comp, err := s.Compile(dir)
	if err != nil {
		return Cell{}, Observed{}, err
	}

	cell := Cell{Scenario: s.Name, Jobs: len(comp.Jobs), GPUs: s.World.GPUs,
		Processes: s.World.Processes, FinalGPUs: s.World.GPUs}
	for _, j := range comp.Jobs {
		cell.Subnets += j.Spec.Subnets
	}
	if err := simPass(comp, &cell); err != nil {
		return Cell{}, Observed{}, err
	}

	var obs Observed
	start := time.Now()
	switch {
	case comp.MultiJob:
		err = serviceRun(ctx, comp, opt, &cell)
	case s.World.Processes > 0:
		err = distribRun(ctx, s, comp.Jobs[0].Spec, opt, &cell, &obs)
	default:
		directRun(ctx, comp.Jobs[0].Spec, &cell, &obs)
	}
	obs.Wall = time.Since(start)
	if err != nil {
		return Cell{}, obs, err
	}
	gate(s.Expect, &cell)
	return cell, obs, nil
}

// simPass fills the deterministic performance columns from fault-free
// simulated runs of each job's world/workload. The simulated plane's
// discrete-event clock makes throughput, bubble ratio, and cache hit
// rate pure functions of the scenario — scorecard-safe.
func simPass(comp *Compiled, cell *Cell) error {
	var hitSum float64
	hitCells := 0
	cell.CacheHitRate = -1
	for _, j := range comp.Jobs {
		cfg, err := j.Spec.Config()
		if err != nil {
			return err
		}
		cfg.RecordTrace = false
		if j.Spec.CacheFactor != nil {
			cfg.SimCacheFactor = *j.Spec.CacheFactor
		}
		name := j.Spec.Policy
		if name == "" {
			name = "naspipe"
		}
		policy, err := naspipe.NewPolicy(name)
		if err != nil {
			return err
		}
		res, err := naspipe.Run(cfg, policy)
		if err != nil {
			return fmt.Errorf("scenario %s: simulated pass: %w", comp.Scenario.Name, err)
		}
		if res.Failed {
			return fmt.Errorf("scenario %s: simulated pass failed: %s", comp.Scenario.Name, res.FailReason)
		}
		cell.ThroughputSubnetsPerHour += res.SubnetsPerHour
		cell.BubbleRatio += res.BubbleRatio
		if cell.Batch == 0 || res.Batch < cell.Batch {
			cell.Batch = res.Batch
		}
		if res.CacheHitRate >= 0 {
			hitSum += res.CacheHitRate
			hitCells++
		}
	}
	n := float64(len(comp.Jobs))
	cell.ThroughputSubnetsPerHour = round6(cell.ThroughputSubnetsPerHour)
	cell.BubbleRatio = round6(cell.BubbleRatio / n)
	if hitCells > 0 {
		cell.CacheHitRate = round6(hitSum / float64(hitCells))
	}
	return nil
}

// directRun executes a single-job scenario through naspipe.RunJob under
// the supervision plane (the lowering attaches one to every job), which
// verifies the final result bitwise.
func directRun(ctx context.Context, spec naspipe.JobSpec, cell *Cell, obs *Observed) {
	res, rep, err := naspipe.RunJob(ctx, spec, false, naspipe.SuperviseConfig{})
	report(rep, cell, obs)
	if err != nil {
		cell.Failures = append(cell.Failures, fmt.Sprintf("supervised run: %v", err))
		return
	}
	closeCell(spec, res, cell)
}

// report copies a supervised run's account into the cell, and its
// recovery time (first failure to completion) into obs.
func report(rep *naspipe.SuperviseReport, cell *Cell, obs *Observed) {
	if rep == nil {
		return
	}
	cell.Restarts = rep.Restarts
	cell.WatchdogFires = rep.WatchdogFires
	if rep.FinalGPUs > 0 {
		cell.FinalGPUs = rep.FinalGPUs
	}
	obs.Recovery = rep.Recovery()
}

// closeCell closes out a single-job cell whose run returned verified
// (every compiled spec sets Verify): coverage, then the checksum.
func closeCell(spec naspipe.JobSpec, res naspipe.Result, cell *Cell) {
	if res.BaseSeq+res.Completed != spec.Subnets {
		cell.Failures = append(cell.Failures,
			fmt.Sprintf("coverage hole: base %d + completed %d != %d subnets", res.BaseSeq, res.Completed, spec.Subnets))
		return
	}
	cell.Verified = true
	cell.Checksum = fmt.Sprintf("%016x", res.Checksum)
}

// distribRun executes a single-job scenario on the distributed
// execution plane: a coordinator with one stage worker per GPU (the
// in-process launcher — same worker code and TCP frames as separate OS
// processes, hermetic for the sweep). The coordinator supervises,
// relaunches the fleet on any worker death, merges the workers'
// observed traces and verifies the merged result bitwise with the check
// RunJob runs, so `processes` shows up nowhere in the checksum — only
// in how the work was executed.
func distribRun(ctx context.Context, s *Scenario, spec naspipe.JobSpec, opt Options, cell *Cell, obs *Observed) error {
	co, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec:     spec,
		RunID:    "scenario-" + s.Name,
		Launcher: &distrib.InProcLauncher{Log: opt.Log},
		Log:      opt.Log,
	})
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	res, rep, err := co.Run(ctx)
	report(rep, cell, obs)
	if err != nil {
		cell.Failures = append(cell.Failures, fmt.Sprintf("distributed fleet: %v", err))
		return nil
	}
	closeCell(spec, res, cell)
	return nil
}

// serviceRun executes a multi-job scenario through an in-process
// service Scheduler: every job is submitted under its tenant (burst or
// staggered arrival), supervised and verified by the service plane
// exactly as a naspiped deployment would, then awaited.
func serviceRun(ctx context.Context, comp *Compiled, opt Options, cell *Cell) error {
	sched, err := service.NewScheduler(service.SchedulerConfig{
		StateDir:    filepath.Join(opt.StateDir, comp.Scenario.Name, "service"),
		Workers:     opt.Workers,
		QueueLimit:  len(comp.Jobs) + 16,
		TenantQuota: len(comp.Jobs) + 8,
		Log:         opt.Log,
	})
	if err != nil {
		return err
	}
	defer sched.Close()

	staggered := comp.Scenario.Workload.Arrival == "staggered"
	ids := make([]string, 0, len(comp.Jobs))
	for _, j := range comp.Jobs {
		if staggered && j.DelayMs > 0 {
			select {
			case <-time.After(time.Duration(j.DelayMs) * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		st, err := sched.Submit(j.Spec)
		if err != nil {
			return fmt.Errorf("scenario %s: submit %s: %w", comp.Scenario.Name, j.Spec.Name, err)
		}
		ids = append(ids, st.ID)
	}

	h := fnv.New64a()
	allVerified := true
	for i, id := range ids {
		st, err := sched.Wait(ctx, id)
		if err != nil {
			return fmt.Errorf("scenario %s: wait %s: %w", comp.Scenario.Name, id, err)
		}
		cell.Restarts += st.Restarts
		cell.WatchdogFires += st.WatchdogFires
		if st.State != service.StateDone {
			allVerified = false
			cell.Failures = append(cell.Failures,
				fmt.Sprintf("job %s (%s) ended %s: %s", comp.Jobs[i].Spec.Name, id, st.State, st.Detail))
			continue
		}
		if !st.Verified {
			allVerified = false
			cell.Failures = append(cell.Failures,
				fmt.Sprintf("job %s (%s) done but unverified: %s", comp.Jobs[i].Spec.Name, id, st.Detail))
			continue
		}
		// Fold per-job reference checksums in submission order — the
		// deterministic identity of the whole multi-job scenario.
		fmt.Fprintf(h, "%s=%s;", comp.Jobs[i].Spec.Name, st.Checksum)
	}
	if allVerified {
		cell.Verified = true
		cell.Checksum = fmt.Sprintf("%016x", h.Sum64())
	}
	return nil
}
