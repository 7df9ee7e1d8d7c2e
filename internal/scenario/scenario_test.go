package scenario

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"naspipe"
)

// validScenario is the mutation base for the invariant table: a small
// single-job world that passes every check.
func validScenario() *Scenario {
	return &Scenario{
		Name: "test-world",
		World: World{
			GPUs: 4,
		},
		Workload: Workload{
			Space:       "NLP.c3",
			ScaleBlocks: 8, ScaleChoices: 3,
			Subnets: 12,
			Seed:    7,
		},
	}
}

func fptr(v float64) *float64 { return &v }
func iptr(v int) *int         { return &v }

// TestScenarioInvariants drives every invariant row to a violation and
// asserts the structured error names exactly the offending field — the
// contract the CLI test re-checks on the other surface.
func TestScenarioInvariants(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		field   string
		wantMsg string
	}{
		{"bad version", func(s *Scenario) { s.ScenarioVersion = "v9" }, "scenario_version", "unsupported version"},
		{"empty name", func(s *Scenario) { s.Name = "" }, "name", "not a slug"},
		{"uppercase name", func(s *Scenario) { s.Name = "Crash-Storm" }, "name", "not a slug"},
		{"zero gpus", func(s *Scenario) { s.World.GPUs = 0 }, "world.gpus", "must be positive"},
		{"speeds wrong length", func(s *Scenario) { s.World.StageSpeeds = []float64{1, 2} }, "world.stage_speeds", "one speed factor per GPU"},
		{"zero speed", func(s *Scenario) { s.World.StageSpeeds = []float64{1, 0, 1, 1} }, "world.stage_speeds", "positive and finite"},
		{"jitter out of range", func(s *Scenario) { s.World.Jitter = 1 }, "world.jitter", "[0, 1)"},
		{"negative jitter", func(s *Scenario) { s.World.Jitter = -0.1 }, "world.jitter", "[0, 1)"},
		{"processes not one per stage", func(s *Scenario) { s.World.Processes = 2 }, "world.processes", "must equal gpus"},
		{"processes with jobs", func(s *Scenario) {
			s.World.Processes = 4
			s.Workload.Jobs = []JobLoad{{Tenant: "a"}}
		}, "world.processes", "single-job"},
		{"processes with elastic", func(s *Scenario) {
			s.World.Processes = 4
			s.Storm = &Storm{Elastic: true}
		}, "world.processes", "elastic"},
		{"missing space", func(s *Scenario) { s.Workload.Space = "" }, "workload.space", "required"},
		{"unknown space", func(s *Scenario) { s.Workload.Space = "NLP.c9" }, "workload.space", "unknown"},
		{"half scaling", func(s *Scenario) { s.Workload.ScaleChoices = 0 }, "workload.scale_blocks", "both or neither"},
		{"zero subnets", func(s *Scenario) { s.Workload.Subnets = 0 }, "workload.subnets", "must be positive"},
		{"negative window", func(s *Scenario) { s.Workload.Window = -1 }, "workload.window", "negative"},
		{"negative cache factor", func(s *Scenario) { s.Workload.CacheFactor = fptr(-1) }, "workload.cache_factor", "negative"},
		{"predictor without cache", func(s *Scenario) {
			s.Workload.Predictor = true
			s.Workload.CacheFactor = fptr(0)
		}, "workload.predictor", "requires a cache"},
		{"unknown arrival", func(s *Scenario) {
			s.Workload.Jobs = []JobLoad{{Tenant: "a"}}
			s.Workload.Arrival = "poisson"
		}, "workload.arrival", "unknown arrival"},
		{"arrival without jobs", func(s *Scenario) { s.Workload.Arrival = "burst" }, "workload.arrival", "needs workload.jobs"},
		{"job negative subnets", func(s *Scenario) {
			s.Workload.Jobs = []JobLoad{{Subnets: -3}}
		}, "workload.jobs", "negative subnets"},
		{"job negative delay", func(s *Scenario) {
			s.Workload.Jobs = []JobLoad{{DelayMs: -1}}
		}, "workload.jobs", "negative delay_ms"},
		{"job bad faults", func(s *Scenario) {
			s.Workload.Jobs = []JobLoad{{Faults: "crashat=banana"}}
		}, "workload.jobs", "crashat"},
		{"bad storm faults", func(s *Scenario) {
			s.Storm = &Storm{Faults: "seed=1,crashat=1:2:3:Q"}
		}, "storm.faults", "crashat"},
		{"negative expected restarts", func(s *Scenario) {
			s.Expect = &Expect{Restarts: iptr(-1)}
		}, "expect.restarts", "negative"},
		{"negative min restarts", func(s *Scenario) {
			s.Expect = &Expect{MinRestarts: -1}
		}, "expect.restarts", "negative min_restarts"},
		{"negative watchdog fires", func(s *Scenario) {
			s.Expect = &Expect{WatchdogFires: iptr(-1)}
		}, "expect.watchdog_fires", "negative"},
		{"negative final gpus", func(s *Scenario) {
			s.Expect = &Expect{FinalGPUs: -2}
		}, "expect.final_gpus", "negative"},
		// Violations caught by the compiled JobSpec's own kernel must
		// surface through the same spec-error type with the spec's field.
		{"supervise negative budget", func(s *Scenario) {
			s.Storm = &Storm{Supervise: &naspipe.SuperviseSpec{MaxRestarts: -1}}
		}, "supervise", "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validScenario()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the mutation")
			}
			if got := naspipe.SpecField(err); got != tc.field {
				t.Fatalf("error %q names field %q, want %q", err, got, tc.field)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestSpecViolationsNameScenarioPaths: the rules a compiled JobSpec owns
// are checked only there, and each violation still names the scenario
// path that set the field — one case per specPaths entry, plus a job's
// own fault plan, which names workload.jobs.
func TestSpecViolationsNameScenarioPaths(t *testing.T) {
	cases := map[string]func(*Scenario){
		"gpus":         func(s *Scenario) { s.World.GPUs = -1 },
		"stage_speeds": func(s *Scenario) { s.World.StageSpeeds = []float64{1, 1, math.Inf(1), 1} },
		"jitter":       func(s *Scenario) { s.World.Jitter = 2 },
		"space":        func(s *Scenario) { s.Workload.Space = "CV.c9" },
		"scale_blocks": func(s *Scenario) { s.Workload.ScaleBlocks, s.Workload.ScaleChoices = -8, -3 },
		"subnets":      func(s *Scenario) { s.Workload.Subnets = -4 },
		"window":       func(s *Scenario) { s.Workload.Window = -2 },
		"cache_factor": func(s *Scenario) { s.Workload.CacheFactor = fptr(-0.5) },
		"predictor": func(s *Scenario) {
			s.Workload.Predictor = true
			s.Workload.CacheFactor = fptr(0)
		},
		"faults": func(s *Scenario) { s.Storm = &Storm{Faults: "drop=1.5"} },
	}
	check := func(t *testing.T, mutate func(*Scenario), field, path string) {
		t.Helper()
		s := validScenario()
		mutate(s)
		jobs, err := s.compileJobs()
		if err != nil {
			t.Fatal(err)
		}
		var specErr error
		for _, j := range jobs {
			if specErr = j.Spec.Validate(); specErr != nil {
				break
			}
		}
		if got := naspipe.SpecField(specErr); got != field {
			t.Fatalf("compiled spec error %v names %q, want the spec's own %q", specErr, got, field)
		}
		if got := naspipe.SpecField(s.Validate()); got != path {
			t.Fatalf("scenario error %v names %q, want %q", s.Validate(), got, path)
		}
	}
	for field, path := range specPaths {
		mutate, ok := cases[field]
		if !ok {
			t.Errorf("no case for mapped spec field %q", field)
			continue
		}
		t.Run(field, func(t *testing.T) { check(t, mutate, field, path) })
	}
	t.Run("job faults", func(t *testing.T) {
		check(t, func(s *Scenario) {
			s.Storm = &Storm{Faults: "seed=3"}
			s.Workload.Jobs = []JobLoad{{Tenant: "a"}, {Tenant: "b", Faults: "drop=1.5"}}
		}, "faults", "workload.jobs")
	})
}

func TestScenarioValidAccepted(t *testing.T) {
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// TestParseStrictness: unknown fields anywhere and trailing documents
// are decode-time errors, before any invariant runs.
func TestParseStrictness(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","world":{"gpus":2,"turbo":true},"workload":{"space":"NLP.c1","subnets":4,"seed":1}}`)); err == nil {
		t.Fatalf("unknown nested field accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","world":{"gpus":2},"workload":{"space":"NLP.c1","subnets":4,"seed":1}} {}`)); err == nil {
		t.Fatalf("trailing document accepted")
	}
	if _, err := Parse([]byte(`{"nmae":"x"}`)); err == nil {
		t.Fatalf("misspelled top-level field accepted")
	}
}

// TestParseEncodeFixedPoint is the deterministic cousin of
// FuzzScenarioParse: canonical form re-parses to identical bytes.
func TestParseEncodeFixedPoint(t *testing.T) {
	s := validScenario()
	s.World.StageSpeeds = []float64{1, 2.5, 1, 1}
	s.Workload.CacheFactor = fptr(1.5)
	s.Storm = &Storm{Faults: "seed=3,crashat=1:2:5:F,drop=0.1"}
	s.Expect = &Expect{Restarts: iptr(1)}
	first, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Parse(first)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	second, err := Encode(re)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("Parse∘Encode is not a fixed point:\n%s\nvs\n%s", first, second)
	}
}

// TestCompileSingleAndMulti checks the lowering: executor, verification,
// defaults, per-job seed skew, and checkpoint placement.
func TestCompileSingleAndMulti(t *testing.T) {
	s := validScenario()
	comp, err := s.Compile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if comp.MultiJob || len(comp.Jobs) != 1 {
		t.Fatalf("single-job scenario compiled to %d jobs, multi=%v", len(comp.Jobs), comp.MultiJob)
	}
	spec := comp.Jobs[0].Spec
	if spec.Executor != "concurrent" || !spec.Verify || spec.Train == nil {
		t.Fatalf("lowering lost the concurrent+verify+train contract: %+v", spec)
	}
	// A storm without a supervise block still runs supervised, on the
	// defaults, as the service plane normalizes its jobs.
	if spec.Supervise == nil || *spec.Supervise != (naspipe.SuperviseSpec{}) {
		t.Fatalf("lowering did not attach the default supervision: %+v", spec.Supervise)
	}
	if spec.Checkpoint == "" {
		t.Fatalf("single job has no checkpoint path")
	}

	s = validScenario()
	s.Workload.Jobs = []JobLoad{
		{Tenant: "a"},
		{Tenant: "b", Name: "custom", Subnets: 6, Seed: 99, Faults: "seed=2,crashat=1:1:3:F"},
	}
	comp, err = s.Compile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !comp.MultiJob || len(comp.Jobs) != 2 {
		t.Fatalf("multi-job scenario compiled to %d jobs, multi=%v", len(comp.Jobs), comp.MultiJob)
	}
	j0, j1 := comp.Jobs[0].Spec, comp.Jobs[1].Spec
	if j0.Seed != s.Workload.Seed || j1.Seed != 99 {
		t.Fatalf("seed skew wrong: job0 %d job1 %d", j0.Seed, j1.Seed)
	}
	if j0.Name != "test-world-0" || j1.Name != "custom" {
		t.Fatalf("names wrong: %q %q", j0.Name, j1.Name)
	}
	if j1.Subnets != 6 || j1.Faults == "" {
		t.Fatalf("per-job overrides lost: %+v", j1)
	}
	if j0.Checkpoint == j1.Checkpoint {
		t.Fatalf("jobs share a checkpoint path %q", j0.Checkpoint)
	}
}

// TestRunCalmScenario: the simplest end-to-end pass — no faults, bitwise
// verified, zero restarts, deterministic sim columns.
func TestRunCalmScenario(t *testing.T) {
	s := validScenario()
	s.Expect = &Expect{Restarts: iptr(0)}
	cell, obs, err := Run(context.Background(), s, Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Failures) > 0 {
		t.Fatalf("calm scenario failed gates: %v", cell.Failures)
	}
	if !cell.Verified || cell.Checksum == "" {
		t.Fatalf("calm scenario not verified: %+v", cell)
	}
	if cell.ThroughputSubnetsPerHour <= 0 || cell.Batch <= 0 {
		t.Fatalf("sim columns empty: %+v", cell)
	}
	if obs.Wall <= 0 {
		t.Fatalf("no wall-clock observation")
	}
	if obs.Recovery != 0 {
		t.Fatalf("calm scenario observed a recovery: %v", obs.Recovery)
	}

	// Same scenario, fresh state: the cell must be byte-for-byte
	// reproducible (the property the golden sweep scales up).
	cell2, _, err := Run(context.Background(), s, Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := EncodeScorecard([]Cell{cell})
	b2, _ := EncodeScorecard([]Cell{cell2})
	if string(b1) != string(b2) {
		t.Fatalf("calm cell not reproducible:\n%s\nvs\n%s", b1, b2)
	}
}

// TestRunDistributedScenario: a world.processes cell runs the job on
// the distributed plane (coordinator + in-proc stage workers over
// Transport links) and must land on the same bitwise checksum as the
// single-process cell — the contract the World.Processes doc states.
func TestRunDistributedScenario(t *testing.T) {
	s := validScenario()
	s.Name = "test-fleet"
	s.World.Processes = 4
	cell, _, err := Run(context.Background(), s, Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Failures) > 0 {
		t.Fatalf("distributed scenario failed gates: %v", cell.Failures)
	}
	if !cell.Verified || cell.Checksum == "" {
		t.Fatalf("distributed cell not verified: %+v", cell)
	}
	if cell.Processes != 4 {
		t.Fatalf("cell.Processes = %d, want 4", cell.Processes)
	}

	// The same world minus the fleet: checksums must agree bitwise.
	solo := validScenario()
	soloCell, _, err := Run(context.Background(), solo, Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if soloCell.Checksum != cell.Checksum {
		t.Fatalf("distributed checksum %s != single-process %s", cell.Checksum, soloCell.Checksum)
	}
}

// TestDistributedFleetRecoveryTime: the catalog's distributed-fleet cell
// loses a worker once, and its recovery time is measured from that
// failure to completion, as on the single-process plane — inside the
// pass's wall time, not all of it.
func TestDistributedFleetRecoveryTime(t *testing.T) {
	s, err := Load(filepath.Join(catalogDir, "distributed-fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	cell, obs, err := Run(context.Background(), s, Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Failures) > 0 || cell.Restarts != 1 {
		t.Fatalf("cell failed or did not restart once: %+v", cell)
	}
	if obs.Recovery <= 0 || obs.Recovery >= obs.Wall {
		t.Fatalf("recovery %v, want within (0, wall %v)", obs.Recovery, obs.Wall)
	}
}

// TestMatrixCell: the migration shim produces valid scenarios with the
// historic workload geometry and folds fault sites into range.
func TestMatrixCell(t *testing.T) {
	s, err := MatrixCell("deep fwd", "seed=105,crashat=7:12:F,dup=0.1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "deep-fwd-gpus2" {
		t.Fatalf("slug %q", s.Name)
	}
	if s.World.GPUs != 2 || s.Workload.Subnets != 18 || s.Workload.Seed != 7 {
		t.Fatalf("matrix geometry drifted: %+v", s)
	}
	if s.Storm == nil || s.Storm.Supervise == nil {
		t.Fatalf("matrix cell lost its storm/supervision: %+v", s.Storm)
	}
	// Stage 7 folded to 7 % 2 = 1.
	if !strings.Contains(s.Storm.Faults, "crashat=1:12:F") {
		t.Fatalf("crash site not folded into depth 2: %q", s.Storm.Faults)
	}
	if _, err := MatrixCell("x", "crashat=zig", 2); err == nil {
		t.Fatalf("bad fault spec accepted")
	}
}
