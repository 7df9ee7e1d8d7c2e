// Package scenario is the declarative scenario plane: one JSON file
// describes a complete world to train in — cluster topology (GPU count,
// heterogeneous stage speeds, timing jitter), workload (search space,
// stream length and skew, cache budget, predictor, per-job arrival for
// the service plane), and fault storm (targeted crash/wedge schedules,
// message chaos, supervision budgets, elastic recovery) — and compiles
// down to the existing JobSpec / engine.Config / fault.Plan /
// supervise.Config types. Nothing in a scenario can express a
// configuration those types cannot; the compiler is a pure lowering.
//
// The format is strict: unknown fields are rejected at decode time, and
// a table of scenario-level invariant checks plus the compiled specs'
// own JobSpec.Validate name the offending field of the first violation
// through the shared spec-error type naspipe.SpecField reads.
// The sweep harness (cmd/naspipe-scenario) runs a catalog of scenario
// files, verifies every cell to bitwise weight equality against the
// sequential reference, and writes a deterministic scorecard — so a new
// stress scenario is a contributed JSON file, not a hand-rolled test.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"

	"naspipe"
)

// Version is the scenario format version this build speaks. A file with
// an empty scenario_version means the current version.
const Version = "v1"

// World declares the cluster the scenario runs on. Everything here
// perturbs timing only — Definition 1 makes the training result
// invariant under any World, which every sweep cell re-verifies.
type World struct {
	// GPUs is the pipeline depth.
	GPUs int `json:"gpus"`
	// StageSpeeds models heterogeneity: stage k runs at 1/StageSpeeds[k]
	// of baseline speed (2.0 = a straggler at half speed). Empty =
	// homogeneous; otherwise one positive factor per GPU.
	StageSpeeds []float64 `json:"stage_speeds,omitempty"`
	// Jitter perturbs per-task compute time by a deterministic factor in
	// [1-j, 1+j] keyed by JitterSeed.
	Jitter     float64 `json:"jitter,omitempty"`
	JitterSeed uint64  `json:"jitter_seed,omitempty"`
	// Processes, when non-zero, runs the real pass on the distributed
	// execution plane: a coordinator plus one stage worker per GPU,
	// connected over fault-tolerant transport links, with worker death
	// healed by fleet relaunch from the committed cursor. The fleet
	// shape is one worker per stage, so the only legal value is GPUs.
	// Like everything else in World, it perturbs execution, not results:
	// the cell's checksum must match the single-process one bitwise.
	Processes int `json:"processes,omitempty"`
}

// JobLoad is one job of a multi-job workload, submitted through the
// service-plane Scheduler. Zero-valued fields inherit the workload
// defaults; a zero Seed inherits workload.seed + the job's index, so
// sibling jobs explore distinct streams by default.
type JobLoad struct {
	Tenant  string `json:"tenant,omitempty"`
	Name    string `json:"name,omitempty"`
	Subnets int    `json:"subnets,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Faults overrides the storm's fault plan for this job only.
	Faults string `json:"faults,omitempty"`
	// DelayMs staggers this job's submission (arrival "staggered" only).
	DelayMs int `json:"delay_ms,omitempty"`
}

// Workload declares what the cluster trains: the search space, the
// exploration stream, the memory plane, and — for service-plane
// scenarios — the per-job arrival pattern.
type Workload struct {
	// Space is a Table 1 search-space name ("NLP.c3", ...).
	Space string `json:"space"`
	// ScaleBlocks/ScaleChoices re-geometry the space (both or neither).
	ScaleBlocks  int `json:"scale_blocks,omitempty"`
	ScaleChoices int `json:"scale_choices,omitempty"`
	// Subnets is the stream length (per job; jobs may override).
	Subnets int `json:"subnets"`
	// Seed drives SPOS subnet sampling.
	Seed uint64 `json:"seed"`
	// Window bounds in-flight subnets (0 = engine default).
	Window int `json:"window,omitempty"`
	// CacheFactor sizes the per-stage layer cache as a multiple of the
	// average subnet footprint; nil leaves both planes' defaults.
	CacheFactor *float64 `json:"cache_factor,omitempty"`
	// Predictor enables the Algorithm 3 context predictor.
	Predictor bool `json:"predictor,omitempty"`
	// Train attaches the numeric training plane. Scenarios always verify
	// bitwise, so a nil Train gets the default small plane (dim 8).
	Train *naspipe.TrainSpec `json:"train,omitempty"`
	// Jobs, when non-empty, makes this a multi-job scenario: every job
	// is submitted to an in-process service Scheduler. Empty = one job
	// run directly on a Runner.
	Jobs []JobLoad `json:"jobs,omitempty"`
	// Arrival is the multi-job submission pattern: "burst" (default,
	// all at once) or "staggered" (honor each job's delay_ms).
	Arrival string `json:"arrival,omitempty"`
}

// Storm declares the scenario's fault plane and how the system is
// allowed to fight back.
type Storm struct {
	// Faults is a fault-plan spec (naspipe.ParseFaultPlan grammar),
	// including multi-incarnation entries: "seed=9,crashat=1:2:9:F".
	Faults string `json:"faults,omitempty"`
	// Supervise sets the supervision plane's budgets (auto-resume,
	// watchdog, restart budgets) for every job. Every scenario job runs
	// supervised; nil means the defaults, as on the service plane.
	Supervise *naspipe.SuperviseSpec `json:"supervise,omitempty"`
	// Elastic permits resuming across a halved GPU count.
	Elastic bool `json:"elastic,omitempty"`
}

// Expect declares the scenario's deterministic acceptance gates beyond
// bitwise verification (which every cell always gets). Nil pointers /
// zero values mean "don't care".
type Expect struct {
	// Verified overrides the default gate (true). Setting it false
	// documents a scenario that is *expected* not to verify.
	Verified *bool `json:"verified,omitempty"`
	// Restarts pins the exact restart count — meaningful only for
	// targeted (storm/crashat) schedules, never rate-based ones.
	Restarts *int `json:"restarts,omitempty"`
	// MinRestarts gates rate-based schedules ("it really crashed").
	MinRestarts int `json:"min_restarts,omitempty"`
	// WatchdogFires pins the exact watchdog-fire count.
	WatchdogFires *int `json:"watchdog_fires,omitempty"`
	// FinalGPUs pins the post-recovery pipeline depth (elastic).
	FinalGPUs int `json:"final_gpus,omitempty"`
}

// Scenario is one declarative world+workload+storm description.
type Scenario struct {
	// ScenarioVersion pins the format; "" means Version.
	ScenarioVersion string `json:"scenario_version,omitempty"`
	// Name is the scorecard key and must be a slug: [a-z0-9-]+.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	World    World    `json:"world"`
	Workload Workload `json:"workload"`
	Storm    *Storm   `json:"storm,omitempty"`
	Expect   *Expect  `json:"expect,omitempty"`
}

// Parse decodes and validates one scenario document. Unknown fields at
// any nesting level are errors, as is trailing data; every invariant
// violation is a spec error naming the offending field (see
// naspipe.SpecField).
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after the document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode renders the scenario in canonical form: indented JSON with a
// trailing newline. Parse∘Encode is a fixed point (FuzzScenarioParse
// pins it), so a canonicalized file re-encodes byte-identically.
func Encode(s *Scenario) ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

var nameRe = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)

// invariant is one row of the scenario validation kernel: the JSON
// field it guards and a check returning a non-empty violation message.
// Rows cover only what a JobSpec cannot express; every rule the compiled
// spec owns is checked by JobSpec.Validate and named back through
// specPaths. Every surface that accepts scenarios (library, CLI, tests)
// runs the same rows, so error text and field attribution cannot drift.
type invariant struct {
	field string
	check func(*Scenario) string
}

var invariants = []invariant{
	{"scenario_version", func(s *Scenario) string {
		if s.ScenarioVersion != "" && s.ScenarioVersion != Version {
			return fmt.Sprintf("unsupported version %q (this build speaks %q)", s.ScenarioVersion, Version)
		}
		return ""
	}},
	{"name", func(s *Scenario) string {
		if !nameRe.MatchString(s.Name) {
			return fmt.Sprintf("%q is not a slug (want lowercase [a-z0-9-], e.g. \"crash-storm\")", s.Name)
		}
		return ""
	}},
	{"world.processes", func(s *Scenario) string {
		p := s.World.Processes
		if p == 0 {
			return ""
		}
		if p != s.World.GPUs {
			return fmt.Sprintf("the distributed fleet runs one stage worker per GPU; processes must equal gpus (%d), got %d", s.World.GPUs, p)
		}
		if len(s.Workload.Jobs) > 0 {
			return "distributed fleets run single-job scenarios; drop workload.jobs"
		}
		if s.Storm != nil && s.Storm.Elastic {
			return "elastic depth changes are not supported on the distributed plane yet"
		}
		return ""
	}},
	{"workload.arrival", func(s *Scenario) string {
		switch s.Workload.Arrival {
		case "", "burst", "staggered":
		default:
			return fmt.Sprintf("unknown arrival pattern %q (want \"burst\" or \"staggered\")", s.Workload.Arrival)
		}
		if s.Workload.Arrival != "" && len(s.Workload.Jobs) == 0 {
			return "an arrival pattern needs workload.jobs"
		}
		return ""
	}},
	{"workload.jobs", func(s *Scenario) string {
		for i, j := range s.Workload.Jobs {
			if j.Subnets < 0 {
				return fmt.Sprintf("job %d: negative subnets %d", i, j.Subnets)
			}
			if j.DelayMs < 0 {
				return fmt.Sprintf("job %d: negative delay_ms %d", i, j.DelayMs)
			}
		}
		return ""
	}},
	{"expect.restarts", func(s *Scenario) string {
		if s.Expect == nil {
			return ""
		}
		if r := s.Expect.Restarts; r != nil && *r < 0 {
			return fmt.Sprintf("negative restart expectation %d", *r)
		}
		if s.Expect.MinRestarts < 0 {
			return fmt.Sprintf("negative min_restarts %d", s.Expect.MinRestarts)
		}
		return ""
	}},
	{"expect.watchdog_fires", func(s *Scenario) string {
		if s.Expect == nil || s.Expect.WatchdogFires == nil {
			return ""
		}
		if *s.Expect.WatchdogFires < 0 {
			return fmt.Sprintf("negative watchdog expectation %d", *s.Expect.WatchdogFires)
		}
		return ""
	}},
	{"expect.final_gpus", func(s *Scenario) string {
		if s.Expect != nil && s.Expect.FinalGPUs < 0 {
			return fmt.Sprintf("negative final_gpus %d", s.Expect.FinalGPUs)
		}
		return ""
	}},
}

// specPaths sends a compiled JobSpec's field back to the scenario path
// that set it, so a rule the spec owns still names what the author
// wrote. A job's own fault plan names workload.jobs instead; fields not
// listed (supervise, train.dataset, ...) keep the spec's name.
var specPaths = map[string]string{
	"gpus":         "world.gpus",
	"stage_speeds": "world.stage_speeds",
	"jitter":       "world.jitter",
	"space":        "workload.space",
	"scale_blocks": "workload.scale_blocks",
	"subnets":      "workload.subnets",
	"window":       "workload.window",
	"cache_factor": "workload.cache_factor",
	"predictor":    "workload.predictor",
	"faults":       "storm.faults",
}

// Validate runs the invariant table, then compiles every job and runs
// the compiled JobSpecs through JobSpec.Validate — so a scenario that
// parses clean is guaranteed to lower to runnable specs.
func (s *Scenario) Validate() error {
	for _, inv := range invariants {
		if msg := inv.check(s); msg != "" {
			return naspipe.SpecErrorf(inv.field, "%s", msg)
		}
	}
	jobs, err := s.compileJobs()
	if err != nil {
		return err
	}
	for i, j := range jobs {
		err := j.Spec.Validate()
		if err == nil {
			continue
		}
		f := naspipe.SpecField(err)
		if f == "" {
			return fmt.Errorf("scenario: compiled job %d (%s): %w", i, j.Spec.Name, err)
		}
		if p, ok := specPaths[f]; ok {
			f = p
			if f == "storm.faults" && len(s.Workload.Jobs) > 0 && s.Workload.Jobs[i].Faults != "" {
				f = "workload.jobs"
			}
		}
		return naspipe.SpecErrorf(f, "compiled job %d (%s): %v", i, j.Spec.Name, err)
	}
	return nil
}
