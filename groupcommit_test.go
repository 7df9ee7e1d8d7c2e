package naspipe_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"naspipe"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/telemetry"
	"naspipe/internal/train"
)

// The tests in this file pin the group-commit durability contract of
// the checkpoint plane (fault.FileRecorder under the job's recovery loop):
// the file always decodes with cursor ≤ the committed frontier, a
// returned Run leaves the latest committed cut on disk and no writer
// behind, and a resume from a lagging file re-executes what was lost.

// settleGoroutines yields until the goroutine count is back to base:
// goroutines that have done their last work may still be returning.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 1e6 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, %d before the run", n, base)
	}
}

// killProbe wraps the recorder handed to the engine and, after every
// cut, reads the file the way a resume after a SIGKILL at that instant
// would find it. Only the stage-0 goroutine calls Snapshot.
type killProbe struct {
	t    *testing.T
	rec  *fault.FileRecorder
	path string

	cuts     int
	seen     chan struct{} // closed once holdUntil cuts have been offered
	lastFile int           // file cursor at the previous cut
	worstLag int
	worst    []byte // the most-lagging file seen
}

const (
	holdFrom  = 6  // the save of the first cut at or past this cursor is held …
	holdUntil = 12 // … until this many cuts have been offered
)

func (p *killProbe) Snapshot(cut fault.Cut) error {
	if err := p.rec.Snapshot(cut); err != nil {
		return err
	}
	buf, err := os.ReadFile(p.path)
	if err != nil {
		p.t.Errorf("cut %d: %v", cut.Cursor, err)
		return nil
	}
	ck, err := fault.Decode(buf)
	if err != nil {
		p.t.Errorf("cut %d: the file does not decode: %v", cut.Cursor, err)
		return nil
	}
	if ck.Cursor < p.lastFile {
		p.t.Errorf("cut %d: file cursor regressed %d -> %d", cut.Cursor, p.lastFile, ck.Cursor)
	}
	if ck.Cursor > cut.Cursor {
		p.t.Errorf("cut %d: file cursor %d is ahead of the committed frontier", cut.Cursor, ck.Cursor)
	}
	p.lastFile = ck.Cursor
	if lag := cut.Cursor - ck.Cursor; lag > p.worstLag {
		p.worstLag, p.worst = lag, buf
	}
	if p.cuts++; p.cuts == holdUntil {
		close(p.seen)
	}
	return nil
}

// TestCheckpointKillAtAnyCutResumesFromLaggingFile exercises the durable lag
// instead of merely permitting it: one save is held (inside the weight
// function, deterministically) while the frontier commits past it, the
// file is checked after every cut, and the run is then resumed from the
// most-lagging copy any cut saw — it must land on the sequential
// checksum like any other resume.
func TestCheckpointKillAtAnyCutResumesFromLaggingFile(t *testing.T) {
	cfg := crashCfg(4)
	tc := crashTrainCfg(cfg)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	probe := &killProbe{t: t, path: path, seen: make(chan struct{})}
	checksumAt := train.NewCheckpointer(tc, cfg.ResolveSubnets()).ChecksumAt
	probe.rec = fault.NewFileRecorder(path, fault.Checkpoint{
		Space: cfg.Space.Name, Seed: cfg.Seed, GPUs: cfg.Spec.GPUs, NumSubnets: cfg.NumSubnets,
	}, 1, func(cursor int) uint64 {
		if cursor >= holdFrom {
			<-probe.seen
		}
		return checksumAt(cursor)
	})
	if err := probe.rec.Init(); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = probe
	if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := probe.rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if ck, err := fault.Load(path); err != nil || ck.Cursor != cfg.NumSubnets {
		t.Fatalf("after Flush the file reads %+v (%v), want cursor %d", ck, err, cfg.NumSubnets)
	}
	if probe.worstLag <= holdUntil-holdFrom {
		t.Fatalf("worst durable lag %d: the held save should have let the frontier run more than %d ahead", probe.worstLag, holdUntil-holdFrom)
	}
	if st := probe.rec.Stats(); st.MaxLag < probe.worstLag || st.Cuts != probe.cuts {
		t.Fatalf("recorder stats %+v disagree with the probe (lag %d over %d cuts)", st, probe.worstLag, probe.cuts)
	}

	// The kill: the file is what the worst instant would have left.
	if err := os.WriteFile(path, probe.worst, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := crashSpec(4, path)
	trace := true
	spec.Trace = &trace
	cfg = crashCfg(4)
	res, _, err := naspipe.RunJob(context.Background(), spec, true, naspipe.SuperviseConfig{})
	if err != nil {
		t.Fatalf("resume from the lagging file: %v", err)
	}
	lagging, _ := fault.Decode(probe.worst)
	if res.BaseSeq != lagging.Cursor || res.BaseSeq+res.Completed != cfg.NumSubnets {
		t.Fatalf("resume covered [%d, %d), want [%d, %d)", res.BaseSeq, res.BaseSeq+res.Completed, lagging.Cursor, cfg.NumSubnets)
	}
	if _, err := naspipe.VerifyAgainstSequential(tc, cfg, res); err != nil {
		t.Fatal(err)
	}
}

// committedCursor is the last cut the engine announced on the bus.
func committedCursor(bus *telemetry.Bus) int {
	cur := 0
	for _, ev := range bus.Events() {
		if ev.Op == telemetry.OpCheckpoint && int(ev.Arg) > cur {
			cur = int(ev.Arg)
		}
	}
	return cur
}

// TestCheckpointedRunLeavesLatestCutAndNoWriter drives Runner.Run down each of its
// return paths and requires, on every one, that the recorder's writer is
// gone (goroutines back to baseline; a successor's file on the same path
// stays untouched) and — unless the disk itself failed — that the file
// holds the latest cut the engine committed.
func TestCheckpointedRunLeavesLatestCutAndNoWriter(t *testing.T) {
	for _, tc := range []struct {
		name, faults string
		rmDir        bool // take the directory away while the run is wedged
		check        func(t *testing.T, err error)
		incarnation  int
	}{
		{name: "success", check: func(t *testing.T, err error) {
			if err != nil {
				t.Fatal(err)
			}
		}},
		{name: "crash", faults: "seed=1,crashat=1:9:F", incarnation: 1, check: func(t *testing.T, err error) {
			var crash *fault.CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("got %v, want a *CrashError", err)
			}
		}},
		{name: "cancelled", faults: "seed=7,wedgeat=0:10:B", incarnation: 1, check: func(t *testing.T, err error) {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
		}},
		{name: "save-error", faults: "seed=7,wedgeat=0:10:B", rmDir: true, check: func(t *testing.T, err error) {
			if err == nil || !strings.Contains(err.Error(), "recording the ended incarnation") {
				t.Fatalf("got %v, want the failed Bump reported", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			dir := filepath.Join(t.TempDir(), "state")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "run.ckpt")
			bus := telemetry.NewBus(0)
			opts := []naspipe.RunnerOption{
				naspipe.WithExecutor(naspipe.ExecutorConcurrent),
				naspipe.WithCheckpoint(path),
				naspipe.WithCheckpointTraining(crashTrainCfg(crashCfg(2))),
			}
			if tc.faults != "" {
				plan, err := naspipe.ParseFaultPlan(tc.faults)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, naspipe.WithFaults(plan))
			}
			r, err := naspipe.NewRunner(opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if strings.Contains(tc.faults, "wedgeat") {
				// The wedge holds the run at committed cursor 10; the writer
				// is self-clocking, so the file gets there with no Flush.
				go func() {
					for ctx.Err() == nil {
						if ck, err := naspipe.LoadCheckpoint(path); err == nil && ck.Cursor >= 10 {
							if tc.rmDir {
								os.RemoveAll(dir)
							}
							cancel()
							return
						}
						time.Sleep(time.Millisecond)
					}
				}()
			}
			cfg := crashCfg(2)
			cfg.Telemetry = bus
			res, err := r.Run(ctx, cfg)
			tc.check(t, err)
			settleGoroutines(t, base)
			if tc.rmDir {
				return
			}
			ck, lerr := naspipe.LoadCheckpoint(path)
			if lerr != nil {
				t.Fatal(lerr)
			}
			if want := committedCursor(bus); ck.Cursor != want || ck.Incarnation != tc.incarnation {
				t.Fatalf("file reads cursor %d incarnation %d, want the committed cursor %d at incarnation %d",
					ck.Cursor, ck.Incarnation, want, tc.incarnation)
			}
			if st := res.CheckpointStats; st.Saves < 2 || st.Cuts != int(bus.Count(telemetry.OpCheckpoint)) {
				t.Fatalf("Result.CheckpointStats %+v, want ≥ 2 saves and %d cuts", st, bus.Count(telemetry.OpCheckpoint))
			}
			// A successor recorder on the same path is never overwritten.
			next := fault.Checkpoint{Space: "successor", NumSubnets: 99, Cursor: 42, Incarnation: 7}
			if err := next.Save(path); err != nil {
				t.Fatal(err)
			}
			settleGoroutines(t, base)
			if got, _ := naspipe.LoadCheckpoint(path); got.Space != "successor" || got.Cursor != 42 {
				t.Fatalf("a stale writer overwrote the successor's file: %+v", got)
			}
		})
	}
}

// TestSupervisedJobSharesOneCheckpointer: three pinned crashes, one
// Checkpointer — the cursors its weight function is asked for never
// regress (a regressed cursor is a from-scratch rebuild of the prefix),
// and an in-process resume loads and re-verifies nothing: the job's one
// recorder continues from its committed cursor, so every weight call is
// a save.
func TestSupervisedJobSharesOneCheckpointer(t *testing.T) {
	cfg := crashCfg(4)
	tc := crashTrainCfg(cfg)
	plan, err := naspipe.ParseFaultPlan("seed=3,crashat=0:1:4:F,crashat=1:2:9:F,crashat=2:1:13:F")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cursors []int
	builds := 0
	restore := naspipe.HookWeightFn(func(fn func(int) uint64) func(int) uint64 {
		builds++
		return func(cursor int) uint64 {
			mu.Lock()
			cursors = append(cursors, cursor)
			mu.Unlock()
			return fn(cursor)
		}
	})
	defer restore()
	r, err := naspipe.NewRunner(
		naspipe.WithExecutor(naspipe.ExecutorConcurrent),
		naspipe.WithTrace(true),
		naspipe.WithFaults(plan),
		naspipe.WithCheckpoint(filepath.Join(t.TempDir(), "run.ckpt")),
		naspipe.WithCheckpointTraining(tc),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := r.RunSupervised(context.Background(), cfg, superviseTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 3 {
		t.Fatalf("%d restarts, want 3", rep.Restarts)
	}
	if _, err := naspipe.VerifyAgainstSequential(tc, cfg, res); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("the supervised job built %d Checkpointers, want 1", builds)
	}
	for i := 1; i < len(cursors); i++ {
		if cursors[i] < cursors[i-1] {
			t.Fatalf("weight cursors regressed (a from-scratch rebuild): %v", cursors)
		}
	}
	if len(cursors) < 4 || cursors[len(cursors)-1] != cfg.NumSubnets {
		t.Fatalf("weight cursors %v: want one per saved cut, ending at %d", cursors, cfg.NumSubnets)
	}
	if st := res.CheckpointStats; st.Saves != len(cursors) || st.SyncEdge <= 0 {
		t.Fatalf("Result.CheckpointStats %+v against %d weight calls over 3 resumes", st, len(cursors))
	}
}

// TestPathlessJobBuildsNoCheckpointer: a job with no checkpoint path
// (a fleet spec without one) keeps its cursor in a memory-only recorder,
// which never saves, so even with a train spec the job builds no weight
// Checkpointer — and still runs supervised to completion.
func TestPathlessJobBuildsNoCheckpointer(t *testing.T) {
	builds := 0
	restore := naspipe.HookWeightFn(func(fn func(int) uint64) func(int) uint64 {
		builds++
		return fn
	})
	defer restore()
	spec := crashSpec(4, "")
	j, err := naspipe.LowerJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := j.RunSupervised(context.Background(), false, naspipe.SuperviseConfig{}, engine.RunConcurrent)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != spec.Subnets || rep.FinalState != naspipe.HealthDone {
		t.Fatalf("completed %d/%d subnets, final state %v", res.Completed, spec.Subnets, rep.FinalState)
	}
	if builds != 0 {
		t.Fatalf("a path-less job built %d Checkpointers, want 0", builds)
	}
}
