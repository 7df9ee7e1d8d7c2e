package supervise_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/supervise"
)

// quietCfg is the unit-test baseline: watchdog off (fakes publish no
// health), backoff shrunk so retry loops run in microseconds.
func quietCfg() supervise.Config {
	return supervise.Config{
		BackoffBase: 100 * time.Microsecond,
		BackoffMax:  time.Millisecond,
		Watchdog:    supervise.WatchdogConfig{Disabled: true},
	}
}

// crashOn builds an incarnation that fails with a *fault.CrashError on
// the given stage while shouldCrash returns true, completing otherwise.
func crashOn(stage int, total int, shouldCrash func(gpus int) bool, gpusSeen *[]int) supervise.Incarnation {
	return func(ctx context.Context, gpus int, probe *engine.RunProbe) (engine.Result, error) {
		if gpusSeen != nil {
			*gpusSeen = append(*gpusSeen, gpus)
		}
		if shouldCrash(gpus) {
			return engine.Result{}, &fault.CrashError{Stage: stage, Seq: 0, Kind: fault.KindForward}
		}
		return engine.Result{Completed: total}, nil
	}
}

// advancingCursor returns a Cursor that moves forward on every read —
// the signal that keeps the crash-loop detector satisfied.
func advancingCursor() func() int {
	n := 0
	return func() int { n++; return n }
}

func transitionStates(rep *supervise.Report) []supervise.State {
	out := make([]supervise.State, 0, len(rep.Transitions))
	for _, tr := range rep.Transitions {
		out = append(out, tr.To)
	}
	return out
}

func TestSupervisorHappyPath(t *testing.T) {
	ok := crashOn(0, 9, func(int) bool { return false }, nil)
	res, rep, err := supervise.Run(context.Background(), quietCfg(), supervise.Job{
		Run: ok, Cursor: advancingCursor(), GPUs: 8, Total: 9,
	})
	if err != nil {
		t.Fatalf("happy path errored: %v", err)
	}
	if res.Completed != 9 || rep.FinalState != supervise.Done || rep.Restarts != 0 {
		t.Fatalf("unexpected report: completed=%d state=%v restarts=%d", res.Completed, rep.FinalState, rep.Restarts)
	}
	if got := transitionStates(rep); len(got) != 1 || got[0] != supervise.Done {
		t.Fatalf("transitions = %v, want single edge to done", got)
	}
}

func TestSupervisorCrashThenResume(t *testing.T) {
	attempts := 0
	run := func(ctx context.Context, gpus int, probe *engine.RunProbe) (engine.Result, error) {
		attempts++
		if attempts == 1 {
			return engine.Result{}, &fault.CrashError{Stage: 2, Seq: 5, Kind: fault.KindForward}
		}
		return engine.Result{Completed: 9, BaseSeq: 3}, nil
	}
	res, rep, err := supervise.Run(context.Background(), quietCfg(), supervise.Job{
		Run: run, Cursor: func() int { return 3 }, GPUs: 8, Total: 9,
	})
	if err != nil {
		t.Fatalf("supervised crash did not recover: %v", err)
	}
	if rep.Restarts != 1 || len(rep.Incidents) != 1 {
		t.Fatalf("restarts=%d incidents=%d, want 1 and 1", rep.Restarts, len(rep.Incidents))
	}
	in := rep.Incidents[0]
	if in.Stage != 2 || in.CursorAfter != 3 || in.Stall != nil {
		t.Fatalf("incident misattributed: %+v", in)
	}
	if res.BaseSeq != 3 {
		t.Fatalf("final result lost resume base: %+v", res)
	}
	want := []supervise.State{supervise.Degraded, supervise.Recovering, supervise.Running, supervise.Done}
	got := transitionStates(rep)
	if len(got) != len(want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSupervisorRestartBudget(t *testing.T) {
	cfg := quietCfg()
	cfg.MaxRestarts = 2
	cfg.CrashLoopWindow = 100 // keep the other give-up out of the way
	always := crashOn(1, 9, func(int) bool { return true }, nil)
	_, rep, err := supervise.Run(context.Background(), cfg, supervise.Job{
		Run: always, Cursor: advancingCursor(), GPUs: 4, Total: 9,
	})
	var giveUp *supervise.GiveUpError
	if !errors.As(err, &giveUp) {
		t.Fatalf("want *GiveUpError, got %v", err)
	}
	if !strings.Contains(giveUp.Reason, "restart budget") {
		t.Fatalf("wrong give-up reason: %q", giveUp.Reason)
	}
	if rep.FinalState != supervise.Failed || rep.Restarts != cfg.MaxRestarts+1 {
		t.Fatalf("state=%v restarts=%d, want failed after %d", rep.FinalState, rep.Restarts, cfg.MaxRestarts+1)
	}
}

func TestSupervisorCrashLoopGiveUp(t *testing.T) {
	cfg := quietCfg()
	cfg.CrashLoopWindow = 3
	always := crashOn(0, 9, func(int) bool { return true }, nil)
	_, rep, err := supervise.Run(context.Background(), cfg, supervise.Job{
		Run:    always,
		Cursor: func() int { return 0 }, // never advances
		GPUs:   4, Total: 9,
	})
	var giveUp *supervise.GiveUpError
	if !errors.As(err, &giveUp) {
		t.Fatalf("want *GiveUpError, got %v", err)
	}
	if !strings.Contains(giveUp.Reason, "crash loop") {
		t.Fatalf("wrong give-up reason: %q", giveUp.Reason)
	}
	// The error text carries the full fault timeline: one line per
	// incident, naming incarnation, depth, stage, and cursor.
	msg := giveUp.Error()
	for _, frag := range []string{"incident timeline", "incarnation 0 (D=4)", "incarnation 2 (D=4)", "crash on stage 0"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("give-up error lacks %q:\n%s", frag, msg)
		}
	}
	if len(rep.Incidents) != 3 {
		t.Fatalf("incidents=%d, want 3 (the crash-loop window)", len(rep.Incidents))
	}
}

func TestSupervisorElasticHalving(t *testing.T) {
	cfg := quietCfg()
	cfg.ElasticAfter = 2
	cfg.MaxRestarts = 10
	var gpusSeen []int
	// Crash on stage 3 until the supervisor has halved the depth to 2.
	run := crashOn(3, 9, func(gpus int) bool { return gpus > 2 }, &gpusSeen)
	_, rep, err := supervise.Run(context.Background(), cfg, supervise.Job{
		Run: run, Cursor: advancingCursor(), GPUs: 8, Total: 9,
	})
	if err != nil {
		t.Fatalf("elastic recovery failed: %v", err)
	}
	want := []int{8, 8, 4, 4, 2}
	if len(gpusSeen) != len(want) {
		t.Fatalf("attempt depths %v, want %v", gpusSeen, want)
	}
	for i := range want {
		if gpusSeen[i] != want[i] {
			t.Fatalf("attempt depths %v, want %v", gpusSeen, want)
		}
	}
	if len(rep.ElasticSteps) != 2 || rep.ElasticSteps[0] != 4 || rep.ElasticSteps[1] != 2 {
		t.Fatalf("elastic steps %v, want [4 2]", rep.ElasticSteps)
	}
	if rep.FinalGPUs != 2 || rep.FinalState != supervise.Done {
		t.Fatalf("final depth %d state %v, want 2/done", rep.FinalGPUs, rep.FinalState)
	}
}

// TestSupervisorElasticFloor: elastic halving stops at one stage. A
// 2-stage job crashing on every attempt halves once, to 1, and every
// later attempt runs at depth 1 until the budget gives up.
func TestSupervisorElasticFloor(t *testing.T) {
	cfg := quietCfg()
	cfg.ElasticAfter = 1
	cfg.MaxRestarts = 3
	var gpusSeen []int
	always := crashOn(0, 9, func(int) bool { return true }, &gpusSeen)
	_, rep, err := supervise.Run(context.Background(), cfg, supervise.Job{
		Run: always, Cursor: advancingCursor(), GPUs: 2, Total: 9,
	})
	var giveUp *supervise.GiveUpError
	if !errors.As(err, &giveUp) {
		t.Fatalf("want budget give-up, got %v", err)
	}
	if want := []int{2, 1, 1, 1}; !slices.Equal(gpusSeen, want) {
		t.Fatalf("attempt depths %v, want %v", gpusSeen, want)
	}
	if len(rep.ElasticSteps) != 1 || rep.ElasticSteps[0] != 1 || rep.FinalGPUs != 1 {
		t.Fatalf("elastic steps %v, final depth %d, want [1] and 1", rep.ElasticSteps, rep.FinalGPUs)
	}
}

func TestSupervisorInterruptionPassthrough(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	run := func(runCtx context.Context, gpus int, probe *engine.RunProbe) (engine.Result, error) {
		cancel() // external interruption mid-incarnation
		<-runCtx.Done()
		return engine.Result{Completed: 2}, runCtx.Err()
	}
	res, rep, err := supervise.Run(ctx, quietCfg(), supervise.Job{
		Run: run, Cursor: advancingCursor(), GPUs: 4, Total: 9,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interruption not passed through: %v", err)
	}
	if rep.FinalState == supervise.Failed {
		t.Fatalf("interruption wrongly marked failed (resumable runs must not be)")
	}
	var giveUp *supervise.GiveUpError
	if errors.As(err, &giveUp) {
		t.Fatalf("interruption misclassified as give-up")
	}
	if res.Completed != 2 {
		t.Fatalf("partial result dropped: %+v", res)
	}
}

func TestSupervisorNonRecoverableFails(t *testing.T) {
	boom := errors.New("config exploded")
	run := func(ctx context.Context, gpus int, probe *engine.RunProbe) (engine.Result, error) {
		return engine.Result{}, boom
	}
	_, rep, err := supervise.Run(context.Background(), quietCfg(), supervise.Job{
		Run: run, Cursor: advancingCursor(), GPUs: 4, Total: 9,
	})
	if !errors.Is(err, boom) {
		t.Fatalf("non-recoverable error rewritten: %v", err)
	}
	if rep.FinalState != supervise.Failed || rep.Restarts != 0 {
		t.Fatalf("state=%v restarts=%d, want failed without restarts", rep.FinalState, rep.Restarts)
	}
}

func TestSupervisorJobValidation(t *testing.T) {
	ok := crashOn(0, 1, func(int) bool { return false }, nil)
	cur := advancingCursor()
	for name, job := range map[string]supervise.Job{
		"no-run":    {Cursor: cur},
		"no-cursor": {Run: ok},
	} {
		_, rep, err := supervise.Run(context.Background(), quietCfg(), job)
		if err == nil {
			t.Errorf("%s: accepted an incomplete job", name)
		}
		if rep == nil || rep.FinalState != supervise.Failed {
			t.Errorf("%s: report = %+v, want failed", name, rep)
		}
	}
}

func TestSupervisorBackoffInterruptible(t *testing.T) {
	cfg := quietCfg()
	cfg.BackoffBase = 10 * time.Second
	cfg.BackoffMax = 10 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	crashed := make(chan struct{})
	run := func(context.Context, int, *engine.RunProbe) (engine.Result, error) {
		close(crashed)
		return engine.Result{}, &fault.CrashError{Stage: 0}
	}
	go func() {
		<-crashed
		cancel()
	}()
	t0 := time.Now()
	_, _, err := supervise.Run(ctx, cfg, supervise.Job{
		Run: run, Cursor: advancingCursor(), GPUs: 4, Total: 9,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled backoff returned %v", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("backoff ignored cancellation for %v", d)
	}
}

// TestStallErrorAttribution pins the diagnosis heuristics on a seeded
// fixture: a wedged stage always wins; otherwise the blocked stage
// (head waiting on an unfinished writer) with the oldest completion.
func TestStallErrorAttribution(t *testing.T) {
	base := time.Now().UnixNano()
	stages := []engine.StageHealth{
		{Stage: 0, FwdDone: 9, BwdDone: 4, LastTaskNs: base - 100},
		{Stage: 1, FwdDone: 5, BwdDone: 4, QueueLen: 2, BlockedHead: 6, OwnerSubnet: 3, LastTaskNs: base - 500},
		{Stage: 2, FwdDone: 5, BwdDone: 5, QueueLen: 1, BlockedHead: 7, OwnerSubnet: 4, LastTaskNs: base - 200},
	}
	stall := &supervise.StallError{Incarnation: 1, Diag: supervise.StallDiagnosis{
		Frontier: 4, Tasks: 32, Quiet: 2 * time.Second, Stages: stages,
	}}
	if got := stall.BlockedStage(); got != 1 {
		t.Fatalf("blocked stage = %d, want 1 (oldest blocked head)", got)
	}
	msg := stall.Error()
	for _, frag := range []string{
		"no progress for 2s at incarnation 1",
		"stage 1: fwd 5 bwd 4",
		"head subnet 6 blocked by subnet 3",
		"diagnosis: stage 1 is the blocked stage",
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("diagnosis lacks %q:\n%s", frag, msg)
		}
	}

	// A wedged stage trumps blocked-head attribution.
	stages[2].Wedged = true
	if got := stall.BlockedStage(); got != 2 {
		t.Fatalf("blocked stage = %d, want the wedged stage 2", got)
	}
	if !strings.Contains(stall.Error(), "WEDGED") {
		t.Errorf("wedged stage not flagged in diagnosis:\n%s", stall.Error())
	}
}

// TestWatchdogFiresOnFlatProbe drives the real watchdog against a probe
// nobody publishes to: both progress signals stay flat, so it must
// cancel the incarnation with a *StallError cause.
func TestWatchdogFiresOnFlatProbe(t *testing.T) {
	cfg := quietCfg()
	cfg.Watchdog = supervise.WatchdogConfig{Poll: time.Millisecond, StallAfter: 30 * time.Millisecond}
	cfg.CrashLoopWindow = 1
	run := func(ctx context.Context, gpus int, probe *engine.RunProbe) (engine.Result, error) {
		<-ctx.Done() // wedge: never publish, never finish
		return engine.Result{}, ctx.Err()
	}
	_, rep, err := supervise.Run(context.Background(), cfg, supervise.Job{
		Run: run, Cursor: func() int { return 0 }, GPUs: 4, Total: 9,
	})
	var giveUp *supervise.GiveUpError
	if !errors.As(err, &giveUp) {
		t.Fatalf("flat probe should end in crash-loop give-up, got %v", err)
	}
	if rep.WatchdogFires == 0 {
		t.Fatal("watchdog never fired on a flat probe")
	}
	if len(rep.Incidents) == 0 || rep.Incidents[0].Stall == nil {
		t.Fatalf("incident not attributed to a stall: %+v", rep.Incidents)
	}
}

// TestSupervisorHooks: Observer sees every recorded edge (in order) and
// OnIncident every incident, as the service metrics plane relies on.
func TestSupervisorHooks(t *testing.T) {
	var edges []supervise.Transition
	var incidents []supervise.Incident
	cfg := quietCfg()
	cfg.Observer = func(tr supervise.Transition) { edges = append(edges, tr) }
	cfg.OnIncident = func(in supervise.Incident) { incidents = append(incidents, in) }

	attempts := 0
	run := func(ctx context.Context, gpus int, probe *engine.RunProbe) (engine.Result, error) {
		attempts++
		if attempts == 1 {
			return engine.Result{}, &fault.CrashError{Stage: 1, Seq: 2, Kind: fault.KindForward}
		}
		return engine.Result{Completed: 9}, nil
	}
	_, rep, err := supervise.Run(context.Background(), cfg, supervise.Job{
		Run: run, Cursor: advancingCursor(), GPUs: 4, Total: 9,
	})
	if err != nil {
		t.Fatalf("run errored: %v", err)
	}
	if len(edges) != len(rep.Transitions) {
		t.Fatalf("observer saw %d edges, report has %d", len(edges), len(rep.Transitions))
	}
	for i, tr := range rep.Transitions {
		if edges[i] != tr {
			t.Fatalf("edge %d: observer %+v, report %+v", i, edges[i], tr)
		}
	}
	if len(incidents) != 1 || incidents[0].Stage != 1 {
		t.Fatalf("incidents = %+v, want one on stage 1", incidents)
	}
}

// TestReportRecovery derives the recovery time from a hand-built
// transition list: first edge into degraded to the edge into done, a
// later incident inside the window changing nothing; 0 without an
// incident or without completion.
func TestReportRecovery(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	edges := []supervise.Transition{
		{From: supervise.Running, To: supervise.Degraded, Incarnation: 0, At: at(10)},
		{From: supervise.Degraded, To: supervise.Recovering, Incarnation: 0, At: at(11)},
		{From: supervise.Recovering, To: supervise.Running, Incarnation: 1, At: at(15)},
		{From: supervise.Running, To: supervise.Degraded, Incarnation: 1, At: at(40)},
		{From: supervise.Degraded, To: supervise.Recovering, Incarnation: 1, At: at(41)},
		{From: supervise.Recovering, To: supervise.Running, Incarnation: 2, At: at(45)},
		{From: supervise.Running, To: supervise.Done, Incarnation: 2, At: at(70)},
	}
	for _, c := range []struct {
		name  string
		edges []supervise.Transition
		want  time.Duration
	}{
		{"recovered", edges, 60 * time.Millisecond},
		{"clean", []supervise.Transition{{From: supervise.Running, To: supervise.Done, At: at(5)}}, 0},
		{"unfinished", edges[:6], 0},
		{"none", nil, 0},
	} {
		rep := &supervise.Report{Transitions: c.edges}
		if got := rep.Recovery(); got != c.want {
			t.Errorf("%s: Recovery() = %v, want %v", c.name, got, c.want)
		}
	}
}
