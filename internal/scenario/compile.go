package scenario

import (
	"fmt"
	"path/filepath"

	"naspipe"
)

// CompiledJob is one lowered job: the JobSpec it runs as plus its
// scenario-level arrival offset.
type CompiledJob struct {
	Spec    naspipe.JobSpec
	DelayMs int
}

// Compiled is the scenario lowered onto the existing configuration
// types. MultiJob scenarios run through the service Scheduler; single
// jobs run directly on a Runner.
type Compiled struct {
	Scenario *Scenario
	Jobs     []CompiledJob
	MultiJob bool
}

// defaultTrain is the training plane attached when a scenario declares
// none: every sweep cell verifies bitwise, and verification needs real
// weights. Small on purpose — scenario streams are short.
func defaultTrain() *naspipe.TrainSpec {
	return &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05}
}

// Compile lowers the scenario. ckptDir is where per-job checkpoint
// files land ("" = relative placeholder paths, good enough for
// validation; the runner passes its state dir).
func (s *Scenario) Compile(ckptDir string) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	jobs, err := s.compileJobsIn(ckptDir)
	if err != nil {
		return nil, err
	}
	return &Compiled{Scenario: s, Jobs: jobs, MultiJob: len(s.Workload.Jobs) > 0}, nil
}

// compileJobs lowers with placeholder checkpoint paths (validation).
func (s *Scenario) compileJobs() ([]CompiledJob, error) {
	return s.compileJobsIn("")
}

func (s *Scenario) compileJobsIn(ckptDir string) ([]CompiledJob, error) {
	base := s.baseSpec()
	if len(s.Workload.Jobs) == 0 {
		base.Checkpoint = filepath.Join(ckptDir, "run.ckpt")
		return []CompiledJob{{Spec: base}}, nil
	}
	jobs := make([]CompiledJob, 0, len(s.Workload.Jobs))
	for i, j := range s.Workload.Jobs {
		spec := base
		spec.Tenant = j.Tenant
		spec.Name = fmt.Sprintf("%s-%d", s.Name, i)
		if j.Name != "" {
			spec.Name = j.Name
		}
		if j.Subnets > 0 {
			spec.Subnets = j.Subnets
		}
		// A zero seed inherits workload.seed + index: sibling jobs
		// explore distinct streams unless the file pins them together.
		spec.Seed = s.Workload.Seed + uint64(i)
		if j.Seed != 0 {
			spec.Seed = j.Seed
		}
		if j.Faults != "" {
			spec.Faults = j.Faults
		}
		spec.Checkpoint = filepath.Join(ckptDir, fmt.Sprintf("job%d.ckpt", i))
		jobs = append(jobs, CompiledJob{Spec: spec, DelayMs: j.DelayMs})
	}
	return jobs, nil
}

// baseSpec lowers the scenario's shared world+workload+storm fields to
// one JobSpec. Every scenario job runs the concurrent executor with
// verification on (which records the trace it replays) — the sweep's
// whole point is re-proving Definition 1 under the declared
// perturbations — and, as the service plane normalizes its jobs, under
// supervision: the storm's budgets, or the defaults when it declares none.
func (s *Scenario) baseSpec() naspipe.JobSpec {
	spec := naspipe.JobSpec{
		APIVersion:   naspipe.JobSpecVersion,
		Name:         s.Name,
		Space:        s.Workload.Space,
		ScaleBlocks:  s.Workload.ScaleBlocks,
		ScaleChoices: s.Workload.ScaleChoices,
		Executor:     "concurrent",
		GPUs:         s.World.GPUs,
		Subnets:      s.Workload.Subnets,
		Seed:         s.Workload.Seed,
		Window:       s.Workload.Window,
		Jitter:       s.World.Jitter,
		JitterSeed:   s.World.JitterSeed,
		StageSpeeds:  s.World.StageSpeeds,
		CacheFactor:  s.Workload.CacheFactor,
		Predictor:    s.Workload.Predictor,
		Train:        s.Workload.Train,
		Verify:       true,
		Supervise:    &naspipe.SuperviseSpec{},
	}
	if spec.Train == nil {
		spec.Train = defaultTrain()
	}
	if s.Storm != nil {
		spec.Faults = s.Storm.Faults
		spec.Elastic = s.Storm.Elastic
		if s.Storm.Supervise != nil {
			sup := *s.Storm.Supervise
			spec.Supervise = &sup
		}
	}
	return spec
}
