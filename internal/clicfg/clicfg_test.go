package clicfg

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"naspipe"
	"naspipe/internal/distrib"
	"naspipe/internal/fault"
	"naspipe/internal/obs"
	"naspipe/internal/telemetry"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	f := Register(flag.NewFlagSet("test", flag.ContinueOnError), Defaults{Subnets: 24, GPUs: 4})
	if err := f.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// A run that dies with an injected crash and a checkpoint still exports
// both telemetry files — the fault timeline is the artifact that matters
// — and exits resumable.
func TestRunExportsOnCrash(t *testing.T) {
	dir := t.TempDir()
	ckpt, tracePath, eventsPath := filepath.Join(dir, "c.ckpt"), filepath.Join(dir, "t.json"), filepath.Join(dir, "e.jsonl")
	f := parse(t, "-faults", "seed=7,crashat=2:9:F", "-checkpoint", ckpt, "-trace-out", tracePath, "-events-out", eventsPath)
	spec := f.Spec(naspipe.ExecutorConcurrent.String())
	var stdout, stderr bytes.Buffer
	code := f.Run(context.Background(), &stdout, &stderr, Job{Name: "test", Spec: spec,
		Run: func(ctx context.Context, hooks naspipe.SuperviseConfig) (naspipe.Result, *naspipe.SuperviseReport, error) {
			res, rep, err := naspipe.RunJob(ctx, spec, false, hooks)
			var crash *fault.CrashError
			if !errors.As(err, &crash) {
				t.Errorf("run error %v, want a *CrashError", err)
			}
			return res, rep, err
		},
		Report: func(naspipe.Result, *naspipe.SuperviseReport) error {
			t.Error("Report called for a failed run")
			return nil
		}})
	if code != naspipe.ExitResumable {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, naspipe.ExitResumable, stderr.String())
	}
	tr, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := telemetry.ValidateChromeTrace(tr); err != nil {
		t.Error(err)
	}
	if b, err := os.ReadFile(eventsPath); err != nil || len(b) == 0 {
		t.Errorf("event log: %d bytes, %v", len(b), err)
	}
	if !strings.Contains(stderr.String(), "rerun with -resume") {
		t.Errorf("no resumable hint on stderr:\n%s", stderr.String())
	}
}

// An already-cancelled run fails (1) by naspipe.ExitCodeOf; validation
// failures are the only usage errors (2).
func TestRunExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	report := func(naspipe.Result, *naspipe.SuperviseReport) error { return nil }
	for _, tc := range []struct {
		name string
		ctx  context.Context
		args []string
		want naspipe.ExitCode
	}{
		{"ok", context.Background(), nil, naspipe.ExitOK},
		{"cancelled", cancelled, nil, naspipe.ExitFailure},
		{"invalid spec", context.Background(), []string{"-gpus", "0"}, naspipe.ExitUsage},
		{"resume without checkpoint", context.Background(), []string{"-resume"}, naspipe.ExitUsage},
	} {
		f := parse(t, tc.args...)
		var stdout, stderr bytes.Buffer
		got := f.Run(tc.ctx, &stdout, &stderr, Job{Name: "test", Spec: f.Spec(naspipe.ExecutorSimulated.String()), Report: report})
		if got != tc.want {
			t.Errorf("%s: exit %d, want %d\nstderr:\n%s", tc.name, got, tc.want, stderr.String())
		}
	}
}

// -debug-addr serves the pprof index and /metrics, where the run's own
// bus counters read what the bus counted, and nothing else:
// /debug/telemetry and /debug/vars are not found.
func TestDebugAddrServesMetricsAndPprof(t *testing.T) {
	f := parse(t, "-debug-addr", "127.0.0.1:0")
	spec := f.Spec(naspipe.ExecutorSimulated.String())
	var stdout, stderr bytes.Buffer
	checked := false
	code := f.Run(context.Background(), &stdout, &stderr, Job{Name: "test", Spec: spec,
		Run: func(ctx context.Context, hooks naspipe.SuperviseConfig) (naspipe.Result, *naspipe.SuperviseReport, error) {
			res, rep, err := naspipe.RunJob(ctx, spec, false, hooks)
			m := regexp.MustCompile(`debug server on http://(\S+)/ `).FindStringSubmatch(stderr.String())
			if m == nil {
				t.Fatalf("no debug server line on stderr:\n%s", stderr.String())
			}
			base := "http://" + m[1]
			for path, want := range map[string]int{
				"/debug/pprof/": http.StatusOK, "/debug/telemetry": http.StatusNotFound, "/debug/vars": http.StatusNotFound,
			} {
				resp, herr := http.Get(base + path)
				if herr != nil {
					t.Fatalf("GET %s: %v", path, herr)
				}
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
				}
			}
			resp, herr := http.Get(base + "/metrics")
			if herr != nil {
				t.Fatalf("GET /metrics: %v", herr)
			}
			defer resp.Body.Close()
			samples, perr := obs.ParseText(resp.Body)
			if perr != nil {
				t.Fatal(perr)
			}
			done := hooks.Telemetry.Count(telemetry.OpTaskComplete)
			for _, smp := range samples {
				if smp.Name == "naspipe_telemetry_task_complete_total" {
					checked = true
					if smp.Value != float64(done) || done == 0 {
						t.Errorf("task_complete_total = %v, bus counted %d", smp.Value, done)
					}
				}
			}
			return res, rep, err
		},
		Report: func(naspipe.Result, *naspipe.SuperviseReport) error { return nil }})
	if code != naspipe.ExitOK || !checked {
		t.Fatalf("exit %d, task_complete_total scraped %v\nstderr:\n%s", code, checked, stderr.String())
	}
}

// TestFleetSummaryOmitsWorkerCounters runs a fleet job the way
// `naspiped dist` does: the coordinator's bus sees its control links and
// health only, while task and scheduler events stay inside the stage
// workers. The closing telemetry line must not report those counters as
// zeros.
func TestFleetSummaryOmitsWorkerCounters(t *testing.T) {
	f := parse(t, "-events-out", filepath.Join(t.TempDir(), "events.jsonl"))
	spec := naspipe.JobSpec{
		Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3,
		Executor: "concurrent", GPUs: 4, Subnets: 12, Seed: 7,
		Train:  &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05},
		Verify: true,
	}
	var stdout, stderr bytes.Buffer
	code := f.Run(context.Background(), &stdout, &stderr, Job{Name: "fleet", Spec: spec,
		Run: func(ctx context.Context, hooks naspipe.SuperviseConfig) (naspipe.Result, *naspipe.SuperviseReport, error) {
			co, err := distrib.NewCoordinator(distrib.CoordConfig{
				Spec: spec, RunID: "summary-test", Launcher: &distrib.InProcLauncher{},
				Tel: hooks.Telemetry, Log: hooks.Log,
			})
			if err != nil {
				return naspipe.Result{}, nil, err
			}
			return co.Run(ctx)
		},
		Report: func(naspipe.Result, *naspipe.SuperviseReport) error { return nil }})
	if code != naspipe.ExitOK {
		t.Fatalf("fleet exit %d\nstderr:\n%s", code, stderr.String())
	}
	line := regexp.MustCompile(`(?m)^telemetry: .*$`).FindString(stdout.String())
	if line == "" {
		t.Fatalf("no telemetry summary line:\n%s", stdout.String())
	}
	if strings.Contains(line, "tasks") || strings.Contains(line, "sched") {
		t.Fatalf("fleet summary reports worker-side counters the coordinator never sees: %q", line)
	}
	if !strings.Contains(line, "link ") {
		t.Fatalf("fleet summary lost the coordinator's own link counters: %q", line)
	}
}
