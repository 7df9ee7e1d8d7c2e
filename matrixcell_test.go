package naspipe_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"naspipe"
	"naspipe/internal/fault"
	"naspipe/internal/scenario"
)

// matrixCell builds the scenario equivalent of one historical
// crash/supervised matrix cell: the workload TestCrashResumeMatrix and
// TestSupervisedCrashMatrix always ran (NLP.c3 scaled 8×3, seed 7, 18
// subnets, the dim-8 WNMT training plane) under the given fault
// schedule at the given pipeline depth. Targeted sites whose stage is
// beyond the depth are folded back with stage %= gpus, exactly as the
// old tables did, so one schedule stresses every depth.
//
// The cell carries the matrices' generous supervision budgets: rate-based
// schedules can crash dozens of times, and the sweep wants microsecond
// backoffs. TestSupervisedCrashMatrix runs it as it compiles;
// TestCrashResumeMatrix drops the supervision and drives the operator's
// -resume contract over naspipe.RunJob itself, to the same verdict.
func matrixCell(name, faultSpec string, gpus int) (*scenario.Scenario, error) {
	plan, err := fault.ParsePlan(faultSpec)
	if err != nil {
		return nil, err
	}
	if plan.CrashTask != nil {
		plan.CrashTask.Stage %= gpus
	}
	if plan.WedgeTask != nil {
		plan.WedgeTask.Stage %= gpus
	}
	for i := range plan.Storm {
		plan.Storm[i].Task.Stage %= gpus
	}

	s := &scenario.Scenario{
		Name: matrixSlug(fmt.Sprintf("%s-gpus%d", name, gpus)),
		World: scenario.World{
			GPUs: gpus,
		},
		Workload: scenario.Workload{
			Space:       "NLP.c3",
			ScaleBlocks: 8, ScaleChoices: 3,
			Subnets: 18,
			Seed:    7,
			Train:   &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05, Dataset: "WNMT"},
		},
		Storm: &scenario.Storm{Faults: plan.String(), Supervise: &naspipe.SuperviseSpec{
			MaxRestarts:     60,
			CrashLoopWindow: 25,
			Backoff:         naspipe.Duration(100 * time.Microsecond),
			BackoffMax:      naspipe.Duration(time.Millisecond),
		}},
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// matrixSlug lowers a free-form cell name onto the scenario name
// grammar ([a-z0-9-]).
func matrixSlug(name string) string {
	var b strings.Builder
	lastDash := true
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

// TestMatrixCell: the matrices' cell builder produces valid scenarios
// with the historic workload geometry and folds fault sites into range.
func TestMatrixCell(t *testing.T) {
	s, err := matrixCell("deep fwd", "seed=105,crashat=7:12:F,dup=0.1", 2)
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
	if _, err := matrixCell("x", "crashat=zig", 2); err == nil {
		t.Fatalf("bad fault spec accepted")
	}
}
