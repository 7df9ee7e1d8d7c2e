package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"naspipe"
	"naspipe/internal/telemetry"
)

// The concurrent plane honours -trace-out like the simulated one: a
// fault-injected, checkpointed run exports a Chrome trace that
// validates.
func TestConcurrentRunWritesTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-faults", "seed=7", "-checkpoint", filepath.Join(dir, "c.ckpt"),
		"-subnets", "48", "-trace-out", tracePath}, &stdout, &stderr)
	if code != naspipe.ExitOK {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := telemetry.ValidateChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.TaskX == 0 {
		t.Fatalf("trace has no task slices: %+v", st)
	}
	if !strings.Contains(stdout.String(), "chrome trace: "+tracePath) {
		t.Errorf("stdout does not report the trace:\n%s", stdout.String())
	}
}

// A run that fails after validation exits by naspipe.ExitCodeOf: an
// interrupted uncheckpointed run is a failure (1), not a usage error.
func TestCancelledRunExitsFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{{"-subnets", "60"}, {"search", "-subnets", "60"}} {
		var stdout, stderr bytes.Buffer
		if code := run(ctx, args, &stdout, &stderr); code != naspipe.ExitFailure {
			t.Errorf("%v: exit %d, want %d\nstderr:\n%s", args, code, naspipe.ExitFailure, stderr.String())
		}
	}
}

// `naspipe-train search` at its defaults reproduces the standalone
// search command it replaced, value for value.
func TestSearchDefaultsReproduce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"search"}, &stdout, &stderr); code != naspipe.ExitOK {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{
		"final weights checksum 81b2eccf1e5758c3",
		"best architecture: choices=[7 3 7 0 3 0 5 5 1 4 4 5]",
		"best validation loss 1.2119, score 13.64",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}

// search trains on the simulated plane: the checkpoint and fault flags
// are usage errors, not silently ignored.
func TestSearchRejectsConcurrentFlags(t *testing.T) {
	for _, args := range [][]string{{"search", "-checkpoint", "x.ckpt"}, {"search", "-faults", "seed=7"}} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != naspipe.ExitUsage {
			t.Errorf("%v: exit %d, want %d", args, code, naspipe.ExitUsage)
		}
	}
}
