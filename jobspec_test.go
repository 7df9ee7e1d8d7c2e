package naspipe

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/supervise"
)

// fullSpec returns a JobSpec with every field populated, for round-trip
// coverage.
func fullSpec(ckpt string) JobSpec {
	cf := 2.5
	tr := true
	return JobSpec{
		APIVersion: JobSpecVersion,
		Tenant:     "team-a", Name: "nightly",
		Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3,
		Policy: "naspipe", Executor: "concurrent",
		GPUs: 4, Subnets: 12, Seed: 7, Window: 6,
		Jitter: 0.25, JitterSeed: 7,
		Trace: &tr, CacheFactor: &cf, Predictor: true,
		Faults:     "seed=7,drop=0.1",
		Checkpoint: ckpt, CheckpointEvery: 2,
		Train:     &TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05, Dataset: "WNMT"},
		Supervise: &SuperviseSpec{StallTimeout: Duration(2 * time.Second), MaxRestarts: 4, ElasticAfter: 3},
		Verify:    true,
	}
}

func TestJobSpecJSONRoundTrip(t *testing.T) {
	want := fullSpec(filepath.Join(t.TempDir(), "run.ckpt"))
	buf, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got JobSpec
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip changed the spec:\n want %+v\n got  %+v", want, got)
	}
	// The wire form must use the human-readable duration encoding.
	if !strings.Contains(string(buf), `"stall_timeout":"2s"`) {
		t.Fatalf("stall_timeout not encoded as a duration string: %s", buf)
	}
}

func TestDurationJSONForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"500ms"`), &d); err != nil || time.Duration(d) != 500*time.Millisecond {
		t.Fatalf("string form: got %v, err %v", time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`1500000000`), &d); err != nil || time.Duration(d) != 1500*time.Millisecond {
		t.Fatalf("integer nanosecond form: got %v, err %v", time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`"not a duration"`), &d); err == nil {
		t.Fatal("garbage duration accepted")
	}
}

// validBase is a minimal valid concurrent spec for the validation table.
func validBase() JobSpec {
	return JobSpec{Space: "NLP.c1", Executor: "concurrent", GPUs: 4, Subnets: 8, Seed: 1}
}

func TestJobSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		field  string // "" = spec stays valid
	}{
		{"valid", func(s *JobSpec) {}, ""},
		{"bad version", func(s *JobSpec) { s.APIVersion = "v2" }, "api_version"},
		{"missing space", func(s *JobSpec) { s.Space = "" }, "space"},
		{"unknown space", func(s *JobSpec) { s.Space = "NLP.c9" }, "space"},
		{"half scale", func(s *JobSpec) { s.ScaleBlocks = 8 }, "scale_blocks"},
		{"zero gpus", func(s *JobSpec) { s.GPUs = 0 }, "gpus"},
		{"negative subnets", func(s *JobSpec) { s.Subnets = -1 }, "subnets"},
		{"jitter out of range", func(s *JobSpec) { s.Jitter = 1.0 }, "jitter"},
		{"NaN jitter", func(s *JobSpec) { s.Jitter = math.NaN() }, "jitter"},
		{"stage speeds ok", func(s *JobSpec) { s.StageSpeeds = []float64{1, 3, 1, 2} }, ""},
		{"stage speeds wrong length", func(s *JobSpec) { s.StageSpeeds = []float64{1, 2} }, "stage_speeds"},
		{"zero stage speed", func(s *JobSpec) { s.StageSpeeds = []float64{1, 0, 1, 1} }, "stage_speeds"},
		{"negative stage speed", func(s *JobSpec) { s.StageSpeeds = []float64{1, 1, -1, 1} }, "stage_speeds"},
		{"storm fault plan ok", func(s *JobSpec) { s.Faults = "seed=5,crashat=1:2:9:F,crashat=2:0:14:B" }, ""},
		{"negative crash-loop window", func(s *JobSpec) {
			s.Checkpoint = "x.ckpt"
			s.Supervise = &SuperviseSpec{CrashLoopWindow: -1}
		}, "supervise"},
		{"negative restart backoff", func(s *JobSpec) {
			s.Checkpoint = "x.ckpt"
			s.Supervise = &SuperviseSpec{Backoff: -1}
		}, "supervise"},
		{"unknown executor", func(s *JobSpec) { s.Executor = "quantum" }, "executor"},
		{"unknown policy", func(s *JobSpec) { s.Policy = "fifo" }, "policy"},
		{"concurrent is CSP-only", func(s *JobSpec) { s.Policy = "gpipe" }, "policy"},
		{"bad fault plan", func(s *JobSpec) { s.Faults = "crashat=bogus" }, "faults"},
		{"faults need concurrent", func(s *JobSpec) { s.Executor = "simulated"; s.Faults = "seed=7,drop=0.1" }, "faults"},
		{"cache needs concurrent", func(s *JobSpec) { s.Executor = "simulated"; cf := 3.0; s.CacheFactor = &cf }, "cache_factor"},
		{"negative cache", func(s *JobSpec) { cf := -1.0; s.CacheFactor = &cf }, "cache_factor"},
		{"NaN cache", func(s *JobSpec) { cf := math.NaN(); s.CacheFactor = &cf }, "cache_factor"},
		{"infinite cache", func(s *JobSpec) { cf := math.Inf(1); s.CacheFactor = &cf }, "cache_factor"},
		{"predictor needs cache", func(s *JobSpec) { cf := 0.0; s.CacheFactor = &cf; s.Predictor = true }, "predictor"},
		{"checkpoint needs concurrent", func(s *JobSpec) { s.Executor = "simulated"; s.Checkpoint = "x.ckpt" }, "faults"},
		{"negative checkpoint_every", func(s *JobSpec) { s.Checkpoint = "x.ckpt"; s.CheckpointEvery = -1 }, "checkpoint_every"},
		{"checkpoint_every needs checkpoint", func(s *JobSpec) { s.CheckpointEvery = 4 }, "checkpoint"},
		{"supervise needs checkpoint", func(s *JobSpec) { s.Supervise = &SuperviseSpec{} }, "supervise"},
		{"elastic needs checkpoint", func(s *JobSpec) { s.Elastic = true }, "checkpoint"},
		{"verify needs train", func(s *JobSpec) { s.Verify = true }, "verify"},
		{"verify contradicts trace off", func(s *JobSpec) {
			off := false
			s.Verify = true
			s.Train = &TrainSpec{}
			s.Trace = &off
		}, "trace"},
		{"bad dataset", func(s *JobSpec) { s.Train = &TrainSpec{Dataset: "MNIST"} }, "train.dataset"},
		{"NaN learning rate", func(s *JobSpec) { s.Train = &TrainSpec{LR: math.NaN()} }, "train.lr"},
		{"infinite learning rate", func(s *JobSpec) { s.Train = &TrainSpec{LR: math.Inf(-1)} }, "train.lr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validBase()
			tc.mutate(&s)
			err := s.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("unexpectedly invalid: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected a violation of field %q, spec passed", tc.field)
			}
			if got := SpecField(err); got != tc.field {
				t.Fatalf("violated field = %q, want %q (err: %v)", got, tc.field, err)
			}
		})
	}
}

// TestNewRunnerDelegatesToSpecValidation pins the shared-kernel design:
// the rules the options share with a JobSpec are reported the same way
// on both surfaces, with the same field attribution.
func TestNewRunnerDelegatesToSpecValidation(t *testing.T) {
	_, err := NewRunner(WithExecutor(ExecutorSimulated), WithFaults(&FaultPlan{Seed: 1, DropRate: 0.1}))
	if err == nil {
		t.Fatal("faults on the simulated executor accepted")
	}
	if got := SpecField(err); got != "faults" {
		t.Fatalf("option-path violation field = %q, want faults (err: %v)", got, err)
	}
	s := validBase()
	s.Executor = "simulated"
	s.Faults = "seed=1,drop=0.1"
	if got := SpecField(s.Validate()); got != "faults" {
		t.Fatalf("spec-path violation field = %q, want faults", got)
	}
}

// TestLowerJobRuns drives a complete concurrent run purely from a
// JobSpec, lowered once, and checks the result against the spec's own
// verification path — the same composition the service plane uses. The
// spec's memory plane reaches the engine: the run reports cache traffic.
func TestLowerJobRuns(t *testing.T) {
	s := fullSpec(filepath.Join(t.TempDir(), "run.ckpt"))
	s.Faults = "" // keep this one clean; fault paths are covered elsewhere
	s.Jitter = 0
	s.JitterSeed = 0
	job, err := LowerJob(s)
	if err != nil {
		t.Fatalf("LowerJob: %v", err)
	}
	cfg := job.EngineConfig()
	if want := (engine.MemPlaneConfig{CacheFactor: 2.5, Predictor: true}); cfg.ConcurrentMem != want {
		t.Fatalf("lowered memory plane %+v, want %+v", cfg.ConcurrentMem, want)
	}
	res, err := job.r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != s.Subnets || len(res.CacheStats) != res.D {
		t.Fatalf("completed %d of %d subnets, %d stages of cache stats", res.Completed, s.Subnets, len(res.CacheStats))
	}
	res, err = job.Verify(res)
	if err != nil {
		t.Fatalf("verification: %v", err)
	}
	if res.Checksum == 0 {
		t.Fatal("verification returned a zero checksum")
	}
}

func TestLowerJobRejectsInvalid(t *testing.T) {
	s := validBase()
	s.GPUs = -3
	if _, err := LowerJob(s); err == nil || SpecField(err) != "gpus" {
		t.Fatalf("LowerJob accepted an invalid spec (err: %v)", err)
	}
}

func TestExitCodeNames(t *testing.T) {
	want := map[ExitCode]string{
		ExitOK: "ok", ExitFailure: "failure", ExitUsage: "usage", ExitResumable: "resumable",
	}
	for code, name := range want {
		if code.String() != name {
			t.Fatalf("ExitCode(%d).String() = %q, want %q", int(code), code.String(), name)
		}
	}
	if ExitCode(7).String() != "ExitCode(7)" {
		t.Fatalf("unknown code rendered as %q", ExitCode(7).String())
	}
}

// TestExitCodeOf pins the one exit rule: 3 needs a checkpoint, and a
// give-up is a failure even when the run was also interrupted.
func TestExitCodeOf(t *testing.T) {
	live := context.Background()
	ended, cancel := context.WithCancel(live)
	cancel()
	crash := &fault.CrashError{Stage: 2, Seq: 9}
	giveUp := &supervise.GiveUpError{Reason: "crash loop", Report: &SuperviseReport{}}
	cases := []struct {
		name         string
		ctx          context.Context
		err          error
		checkpointed bool
		want         ExitCode
	}{
		{"nil", live, nil, true, ExitOK},
		{"give-up", live, giveUp, true, ExitFailure},
		{"give-up while interrupted", ended, giveUp, true, ExitFailure},
		{"crash with checkpoint", live, crash, true, ExitResumable},
		{"crash without checkpoint", live, crash, false, ExitFailure},
		{"wrapped crash", live, fmt.Errorf("naspipe: %w", crash), true, ExitResumable},
		{"interrupted with checkpoint", ended, context.Canceled, true, ExitResumable},
		{"interrupted without checkpoint", ended, context.Canceled, false, ExitFailure},
		{"plain error", live, errors.New("boom"), true, ExitFailure},
	}
	for _, c := range cases {
		if got := ExitCodeOf(c.ctx, c.err, c.checkpointed); got != c.want {
			t.Errorf("%s: ExitCodeOf = %v, want %v", c.name, got, c.want)
		}
	}
}

// FuzzJobSpecJSON checks that any JobSpec that decodes and validates
// also round-trips canonically: re-encoding and re-decoding preserves
// both the bytes and the validation verdict.
func FuzzJobSpecJSON(f *testing.F) {
	seed1, _ := json.Marshal(validBase())
	seed2, _ := json.Marshal(fullSpec("run.ckpt"))
	f.Add(string(seed1))
	f.Add(string(seed2))
	f.Add(`{"space":"CV.c1","gpus":2,"subnets":4,"seed":9}`)
	f.Add(`{"space":"NLP.c1","gpus":1,"subnets":1,"supervise":{"stall_timeout":"50ms"}}`)
	f.Add(`{"space":"NLP.c1","executor":"concurrent","gpus":4,"subnets":8,"stage_speeds":[1,3,1,2],"faults":"seed=5,crashat=1:2:9:F"}`)
	f.Add(`{"space":"NLP.c1","executor":"concurrent","gpus":2,"subnets":4,"checkpoint":"x.ckpt","supervise":{"crash_loop_window":25,"backoff":"100us","backoff_max":"1ms"}}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var s JobSpec
		if err := json.Unmarshal([]byte(raw), &s); err != nil {
			return // malformed JSON is the decoder's problem, not ours
		}
		valid := s.Validate() == nil
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("decoded spec failed to re-encode: %v\nspec: %+v", err, s)
		}
		var again JobSpec
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoded spec failed to decode: %v\nbytes: %s", err, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("encoding is not a fixed point:\n first  %s\n second %s", enc, enc2)
		}
		if again.Validate() == nil != valid {
			t.Fatalf("validation verdict changed across round trip (was valid=%v)\nspec: %s", valid, enc)
		}
	})
}
