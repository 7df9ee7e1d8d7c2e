package distrib_test

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naspipe"
	"naspipe/internal/distrib"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/supervise"
	"naspipe/internal/telemetry"
	"naspipe/internal/train"
)

// distSpec is the shared fleet job: small enough to run in CI, deep
// enough (D=4) that every link path — forwards, gradients, write
// notes — carries real traffic, with jitter so interleavings vary.
func distSpec(t *testing.T, subnets int) naspipe.JobSpec {
	t.Helper()
	return naspipe.JobSpec{
		Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3,
		Executor: "concurrent", GPUs: 4, Subnets: subnets, Seed: 7,
		Jitter: 0.3, JitterSeed: 11,
		Train:  &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05},
		Verify: true,
	}
}

// heldOpen pins a fleet job's incarnation 0 open so a kill or interrupt
// always lands on a live fleet: stage 0 wedges on subnet 6's backward,
// which is the last step of that subnet, so the stream can never finish
// before the fleet is torn down. Subnet 0's backward reaches stage 0
// first (it leads every queue on the way down and back), so at least
// one cut is committed before the wedge — waitCommitted always returns.
// The bumped incarnation does not wedge. The watchdog is moved out of
// the way: the test's own kill, not a stall verdict, ends incarnation 0.
func heldOpen(t *testing.T, subnets int) naspipe.JobSpec {
	spec := distSpec(t, subnets)
	spec.Checkpoint = filepath.Join(t.TempDir(), "fleet.ckpt")
	spec.Faults = "seed=1,wedgeat=0:0:6:B"
	spec.Supervise = &naspipe.SuperviseSpec{
		StallTimeout: naspipe.Duration(time.Minute),
		MaxRestarts:  4, Backoff: naspipe.Duration(time.Millisecond),
		BackoffMax: naspipe.Duration(5 * time.Millisecond),
	}
	return spec
}

// waitCommitted returns once the checkpoint file records a committed
// cursor in [1, total): the fleet is mid-stream, with work to lose and
// work to keep. It runs beside Coordinator.Run, so it reports with
// t.Error and lets the caller go on to unblock the run.
func waitCommitted(t *testing.T, spec naspipe.JobSpec) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(60 * time.Second)
	for {
		if ck, err := fault.Load(spec.Checkpoint); err == nil && ck.Cursor >= 1 {
			if ck.Cursor >= spec.Subnets {
				t.Errorf("stream finished (cursor %d) although incarnation 0 is wedged", ck.Cursor)
			}
			return
		}
		select {
		case <-tick.C:
		case <-deadline:
			t.Error("no cut committed within 60s")
			return
		}
	}
}

// checkLeaks fails the test if it ends with more goroutines than it
// started with: relay pumps, death watchers, reapers and in-process
// workers must all be gone once Coordinator.Run has returned.
func checkLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		var n int
		for {
			if n = runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
	})
}

func coordFor(t *testing.T, spec naspipe.JobSpec, runID string) *distrib.Coordinator {
	t.Helper()
	co, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec: spec, RunID: runID,
		Launcher: &distrib.InProcLauncher{Log: t.Logf},
		Log:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestFleetMatchesSequentialBitwise is the distributed plane's core
// guarantee: four stage workers over real TCP links, with timing
// jitter, produce a merged trace whose replay is bitwise identical to
// strict sequential training. The coordinator's Verify already
// replays; this test re-derives the checksum independently too.
func TestFleetMatchesSequentialBitwise(t *testing.T) {
	checkLeaks(t)
	spec := distSpec(t, 12)
	co := coordFor(t, spec, "bitwise-test")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, rep, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if rep.FinalState != supervise.Done {
		t.Fatalf("final state %v, want Done", rep.FinalState)
	}
	if res.Completed != spec.Subnets {
		t.Fatalf("completed %d/%d", res.Completed, spec.Subnets)
	}
	if res.BaseSeq != 0 || res.ObservedTrace == nil {
		t.Fatalf("result shape: base %d, trace %v", res.BaseSeq, res.ObservedTrace != nil)
	}

	// Independent re-derivation: the merged fleet trace replays to the
	// sequential reference's checksum on a fresh net.
	tc, _ := spec.TrainConfig()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	subs := cfg.ResolveSubnets()
	want := train.Sequential(tc, subs).Checksum
	got, err := train.Replay(tc, subs, res.ObservedTrace)
	if err != nil {
		t.Fatalf("merged-trace replay: %v", err)
	}
	if got.Checksum != want {
		t.Fatalf("fleet checksum %016x, want sequential %016x", got.Checksum, want)
	}

	// And the fleet agrees with the single-process concurrent plane.
	sp, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Completed != res.Completed {
		t.Fatalf("single-process completed %d, fleet %d", sp.Completed, res.Completed)
	}
}

// TestCoordinatorRunFlushesRecorder: cuts reach the coordinator's file
// recorder over the relay and are group-committed off the pump; when Run
// returns the writer has been drained and the file holds the final
// committed cut, with what the checkpoint plane cost on the Result.
func TestCoordinatorRunFlushesRecorder(t *testing.T) {
	checkLeaks(t)
	spec := distSpec(t, 12)
	spec.Checkpoint = filepath.Join(t.TempDir(), "fleet.ckpt")
	spec.CheckpointEvery = 5
	co := coordFor(t, spec, "flush-test")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, _, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	ck, err := fault.Load(spec.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Cursor != spec.Subnets || ck.WeightChecksum == 0 {
		t.Fatalf("file reads %+v after Run, want cursor %d with its weight checksum", ck, spec.Subnets)
	}
	// Init, then the due cuts 5, 10 and the final 12, coalesced at will.
	if st := res.CheckpointStats; st.Cuts < 1 || st.Saves < 2 || st.Saves > 4 {
		t.Fatalf("Result.CheckpointStats %+v", st)
	}
}

// TestFleetSurvivesWorkerKill is the kill -9 drill in miniature: a
// mid-run abrupt kill of one stage worker (no farewell frame — the
// connection just dies) must be detected, the fleet torn down and
// relaunched from the committed cursor, and the final result must
// still verify bitwise against the sequential reference.
func TestFleetSurvivesWorkerKill(t *testing.T) {
	checkLeaks(t)
	spec := heldOpen(t, 12)
	victim := make(chan distrib.Process, 1)
	co, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec: spec, RunID: "kill-test", Log: t.Logf, DeadAfter: time.Second,
		Launcher: &victimLauncher{InProcLauncher: distrib.InProcLauncher{Log: t.Logf}, stage: 2, victim: victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		p := <-victim
		waitCommitted(t, spec)
		p.Kill()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, rep, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("fleet run with kill: %v\nincidents:\n%s", err, rep.Timeline())
	}
	if rep.Restarts != 1 {
		t.Fatalf("one kill must cost exactly one fleet restart, got %d\n%s", rep.Restarts, rep.Timeline())
	}
	if rep.FinalState != supervise.Done {
		t.Fatalf("final state %v, want Done", rep.FinalState)
	}
	if res.BaseSeq < 1 || res.BaseSeq+res.Completed != spec.Subnets {
		t.Fatalf("resumed run covers base %d + completed %d of %d subnets",
			res.BaseSeq, res.Completed, spec.Subnets)
	}
	// Verify already ran inside co.Run (spec.Verify). Pin the prefix
	// composition independently: sequential prefix + replayed suffix.
	tc, _ := spec.TrainConfig()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := naspipe.VerifyAgainstSequential(tc, cfg, res); err != nil {
		t.Fatalf("post-kill verification: %v", err)
	}
}

// TestFleetWithoutCheckpointRecoversFromMemory: a fleet whose spec
// names no checkpoint file still restarts from its committed cursor,
// which the job's recovery loop keeps in a memory-only recorder.
// Incarnation 0 wedges mid-stream and the watchdog ends it (a spec
// without a checkpoint path carries no supervise block, so the fleet
// supervises with the defaults: a 2 s stall timeout); the bumped
// incarnation does not wedge and finishes the suffix.
func TestFleetWithoutCheckpointRecoversFromMemory(t *testing.T) {
	checkLeaks(t)
	spec := distSpec(t, 12)
	spec.Faults = "seed=1,wedgeat=0:0:6:B"
	co := coordFor(t, spec, "memory-cursor-test")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, rep, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v\nincidents:\n%s", err, rep.Timeline())
	}
	if rep.Restarts != 1 || rep.WatchdogFires != 1 {
		t.Fatalf("%d restarts, %d watchdog fires, want 1 and 1\n%s", rep.Restarts, rep.WatchdogFires, rep.Timeline())
	}
	if res.BaseSeq < 1 || res.BaseSeq+res.Completed != spec.Subnets {
		t.Fatalf("the relaunch covers base %d + completed %d of %d subnets",
			res.BaseSeq, res.Completed, spec.Subnets)
	}
	tc, _ := spec.TrainConfig()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := naspipe.VerifyAgainstSequential(tc, cfg, res); err != nil || sum != res.Checksum {
		t.Fatalf("verification: checksum %016x against the run's %016x: %v", sum, res.Checksum, err)
	}
}

// TestFleetResumeAcrossCoordinators models coordinator death: interrupt
// a fleet mid-stream, drop the whole coordinator, then build a fresh one
// resuming from the checkpoint file.
func TestFleetResumeAcrossCoordinators(t *testing.T) {
	checkLeaks(t)
	spec := heldOpen(t, 10)

	// Phase 1: cancel the coordinator once the run is mid-stream.
	co1 := coordFor(t, spec, "resume-test")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		waitCommitted(t, spec)
		cancel()
	}()
	_, _, err := co1.Run(ctx)
	cancel()
	if err == nil {
		t.Fatal("run finished although incarnation 0 was wedged; nothing to resume")
	}

	// Phase 2: a fresh coordinator resumes from the file.
	co2, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec: spec, RunID: "resume-test-2",
		Launcher: &distrib.InProcLauncher{Log: t.Logf},
		Log:      t.Logf, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel2()
	res, rep, err := co2.Run(ctx2)
	if err != nil {
		t.Fatalf("resumed fleet: %v\nincidents:\n%s", err, rep.Timeline())
	}
	if res.BaseSeq < 1 || res.BaseSeq+res.Completed != spec.Subnets {
		t.Fatalf("resumed run covers %d+%d of %d", res.BaseSeq, res.Completed, spec.Subnets)
	}
	tc, _ := spec.TrainConfig()
	cfg, _ := spec.Config()
	if _, err := naspipe.VerifyAgainstSequential(tc, cfg, res); err != nil {
		t.Fatalf("cross-coordinator verification: %v", err)
	}
}

// TestCleanFleetEndsWithoutKills: the "complete" release is an
// unsequenced Abort queued on each worker's link just before the
// coordinator reaps, and a worker that misses it is killed after 2 s. A
// clean job must end with every worker leaving on the release, so a
// frame lost from a link's queue at teardown fails here rather than
// showing up only as fleet start-to-finish time.
func TestCleanFleetEndsWithoutKills(t *testing.T) {
	checkLeaks(t)
	spec := distSpec(t, 12)
	l := &killCounter{}
	co, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec: spec, RunID: "release-test", Launcher: l, Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, rep, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if rep.FinalState != supervise.Done || res.Completed != spec.Subnets {
		t.Fatalf("final state %v with %d/%d completed, want Done with all", rep.FinalState, res.Completed, spec.Subnets)
	}
	if n := l.kills.Load(); n != 0 {
		t.Fatalf("%d workers killed after a clean job, want 0: the release Abort did not reach them", n)
	}
}

// killCounter is the in-process launcher with every Kill counted.
type killCounter struct {
	distrib.InProcLauncher
	kills atomic.Int64
}

func (l *killCounter) Start(ctx context.Context, w distrib.WorkerSpec) (distrib.Process, error) {
	p, err := l.InProcLauncher.Start(ctx, w)
	if err != nil {
		return nil, err
	}
	return countedKill{p, &l.kills}, nil
}

type countedKill struct {
	distrib.Process
	kills *atomic.Int64
}

func (p countedKill) Kill() error {
	p.kills.Add(1)
	return p.Process.Kill()
}

// victimLauncher wraps the in-process launcher and hands the chosen
// stage's first-incarnation worker to the test, which kills it —
// abruptly, like kill -9: the worker sends nothing, its connection
// simply dies.
type victimLauncher struct {
	distrib.InProcLauncher
	stage  int
	victim chan<- distrib.Process
}

func (l *victimLauncher) Start(ctx context.Context, w distrib.WorkerSpec) (distrib.Process, error) {
	p, err := l.InProcLauncher.Start(ctx, w)
	if err == nil && w.Stage == l.stage && w.Incarnation == 0 {
		l.victim <- p
	}
	return p, err
}

// TestProcessWaitServesEveryCaller pins the Process contract the
// coordinator relies on: its death watcher and its reaper both Wait on
// every worker, and both must get the worker's terminal error.
func TestProcessWaitServesEveryCaller(t *testing.T) {
	checkLeaks(t)
	// Nothing listens on the address, so the worker redials until killed.
	p, err := (&distrib.InProcLauncher{}).Start(context.Background(),
		distrib.WorkerSpec{Addr: "127.0.0.1:1", RunID: "wait-test"})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Wait()
		}(i)
	}
	p.Kill()
	wg.Wait()
	if errs[0] == nil || errs[0] != errs[1] {
		t.Fatalf("two waiters got %v and %v, want the worker's one terminal error", errs[0], errs[1])
	}
	if err := p.Wait(); err != errs[0] {
		t.Fatalf("a late Wait got %v, want %v", err, errs[0])
	}
}

// TestCoordinatorResumeRejectsForeignCheckpoint pins the resume guard:
// Coordinator.Run{Resume} applies the identity check RunJob's resume
// applies, and a mismatch is refused before any worker is launched —
// not discovered later inside one.
func TestCoordinatorResumeRejectsForeignCheckpoint(t *testing.T) {
	spec := distSpec(t, 12)
	spec.Checkpoint = filepath.Join(t.TempDir(), "fleet.ckpt")
	tc, _ := spec.TrainConfig()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	good := fault.Checkpoint{
		Space: cfg.Space.Name, Seed: spec.Seed, GPUs: spec.GPUs, NumSubnets: spec.Subnets,
		JitterSeed: spec.JitterSeed, Cursor: 12, Incarnation: 1,
		WeightChecksum: train.NewCheckpointer(tc, cfg.ResolveSubnets()).ChecksumAt(12),
	}
	for _, c := range []struct {
		name, want string
		mutate     func(*fault.Checkpoint)
	}{
		{"space", "space", func(ck *fault.Checkpoint) { ck.Space = "NLP.c2" }},
		{"seed", "seed", func(ck *fault.Checkpoint) { ck.Seed++ }},
		{"gpus", "GPUs", func(ck *fault.Checkpoint) { ck.GPUs = 8 }},
		{"subnets", "subnets", func(ck *fault.Checkpoint) { ck.NumSubnets++ }},
		{"jitter", "jitter seed", func(ck *fault.Checkpoint) { ck.JitterSeed = 99 }},
		{"cursor", "cursor", func(ck *fault.Checkpoint) { ck.Cursor = 13 }},
		{"weights", "weight checksum", func(ck *fault.Checkpoint) { ck.WeightChecksum ^= 1 }},
		{"", "", func(*fault.Checkpoint) {}}, // the unmutated checkpoint resumes
	} {
		ck := good
		c.mutate(&ck)
		if err := ck.Save(spec.Checkpoint); err != nil {
			t.Fatal(err)
		}
		co, err := distrib.NewCoordinator(distrib.CoordConfig{
			Spec: spec, RunID: "guard-test", Resume: true, Launcher: noLauncher{t},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = co.Run(context.Background())
		switch {
		case c.name == "" && err != nil:
			t.Errorf("matching checkpoint refused: %v", err)
		case c.name != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("mismatched %s: Run = %v, want a resume error naming the %s", c.name, err, c.want)
		}
	}
}

// TestCoordinatorResumeRequiresCheckpoint: Resume on a spec with no
// checkpoint path is refused, as RunJob's resume refuses it, instead of
// silently running fresh from cursor 0.
func TestCoordinatorResumeRequiresCheckpoint(t *testing.T) {
	co, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec: distSpec(t, 12), RunID: "no-ckpt", Resume: true, Launcher: noLauncher{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("Resume without a checkpoint path: Run = %v, want a refusal", err)
	}
}

// noLauncher fails the test if the coordinator gets as far as a launch.
type noLauncher struct{ t *testing.T }

func (l noLauncher) Start(context.Context, distrib.WorkerSpec) (distrib.Process, error) {
	l.t.Error("a worker was launched")
	return nil, context.Canceled
}

// TestFleetSurvivesLinkFaults runs a fleet whose data links drop
// frames at a rate and at a pinned frame, are cut, and are partitioned
// all at once. Each key fires on the sending end of a worker-to-worker
// link whose peer is the key's stage (a partition on every link). The
// links heal below the engine: no restart, the sequential checksum,
// and the bus shows the retransmits and reconnects that did it.
func TestFleetSurvivesLinkFaults(t *testing.T) {
	checkLeaks(t)
	spec := distSpec(t, 32)
	spec.Faults = "seed=5,linkdrop=0.02,linkdropat=1:10,disconnect=2:15,partition=30"
	bus := telemetry.NewBus(0)
	co, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec: spec, RunID: "link-fault-test", Tel: bus, Log: t.Logf,
		Launcher: &distrib.InProcLauncher{Tel: bus, Log: t.Logf},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, rep, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("fleet run under link faults: %v\nincidents:\n%s", err, rep.Timeline())
	}
	if rep.Restarts != 0 || res.Completed != spec.Subnets {
		t.Fatalf("%d restarts with %d/%d completed, want 0 and all\n%s",
			rep.Restarts, res.Completed, spec.Subnets, rep.Timeline())
	}
	tc, _ := spec.TrainConfig()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if want := train.Sequential(tc, cfg.ResolveSubnets()).Checksum; res.Checksum != want {
		t.Fatalf("fleet checksum %016x, want sequential %016x", res.Checksum, want)
	}
	for _, op := range []telemetry.Op{telemetry.OpLinkDrop, telemetry.OpLinkCut,
		telemetry.OpLinkRetransmit, telemetry.OpLinkReconnect} {
		t.Logf("%s: %d", op, bus.Count(op))
	}
	if bus.Count(telemetry.OpLinkRetransmit) < 1 || bus.Count(telemetry.OpLinkReconnect) < 1 {
		t.Fatalf("bus saw %d link-retransmit and %d link-reconnect events, want at least one of each",
			bus.Count(telemetry.OpLinkRetransmit), bus.Count(telemetry.OpLinkReconnect))
	}
}
