package engine_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"naspipe/internal/data"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/train"
)

// faultTrainCfg is the numeric ground-truth config the fault tests share.
func faultTrainCfg(cfg engine.Config) train.Config {
	return train.Config{Space: cfg.Space, Dim: 8, Seed: cfg.Seed,
		BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
}

// TestConcurrentMessageFaultsPreserveTrace injects drop/delay/duplicate
// message faults at aggressive rates and checks the CSP guarantee is
// untouched: the run completes, the canonical trace replays to the
// sequential checksum, and every fault family actually fired (the rates
// are high enough that zero occurrences would mean the wiring is dead).
func TestConcurrentMessageFaultsPreserveTrace(t *testing.T) {
	for _, d := range []int{2, 4} {
		t.Run(fmt.Sprintf("gpus=%d", d), func(t *testing.T) {
			cfg := ccCfg(d, false)
			cfg.Faults = &fault.Plan{
				Seed: 13, DropRate: 0.15, DelayRate: 0.1, DupRate: 0.1,
			}
			bus := telemetry.NewBus(0)
			cfg.Telemetry = bus
			res, err := engine.RunConcurrent(context.Background(), cfg)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if res.Completed != cfg.NumSubnets {
				t.Fatalf("completed %d/%d", res.Completed, cfg.NumSubnets)
			}
			tc := faultTrainCfg(cfg)
			subs := supernet.Sample(cfg.Space, cfg.Seed, cfg.NumSubnets)
			want := train.Sequential(tc, subs).Checksum
			got, err := train.Replay(tc, subs, res.Trace)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got.Checksum != want {
				t.Fatalf("faulted run's trace replays to %x, sequential reference %x", got.Checksum, want)
			}
			snap := bus.Snapshot()
			// 2(d-1)n message sends at these rates: P(any family at zero) is
			// negligible for d >= 2 with n = 18 and the seeded stream fixed.
			if snap.FaultDrops == 0 || snap.FaultDelays == 0 || snap.FaultDups == 0 {
				t.Fatalf("fault families silent: drops=%d delays=%d dups=%d",
					snap.FaultDrops, snap.FaultDelays, snap.FaultDups)
			}
			if snap.Crashes != 0 {
				t.Fatalf("unexpected crashes: %d", snap.Crashes)
			}
		})
	}
}

// TestConcurrentTargetedCrash pins the crash contract: the run returns a
// typed *fault.CrashError naming the injected site, the partial result
// has Deadlock set, and exactly one OpFaultCrash event is on the bus.
func TestConcurrentTargetedCrash(t *testing.T) {
	cfg := ccCfg(4, false)
	cfg.Faults = &fault.Plan{
		Seed:      1,
		CrashTask: &fault.TaskRef{Stage: 2, Seq: 9, Kind: fault.KindForward},
	}
	bus := telemetry.NewBus(0)
	cfg.Telemetry = bus
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err == nil {
		t.Fatal("crash plan completed without error")
	}
	var ce *fault.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *fault.CrashError", err)
	}
	if ce.Stage != 2 || ce.Seq != 9 || ce.Kind != fault.KindForward || ce.Incarnation != 0 {
		t.Fatalf("crash error names wrong site: %+v", *ce)
	}
	if !res.Deadlock {
		t.Fatal("partial result does not mark Deadlock")
	}
	if res.Completed >= cfg.NumSubnets {
		t.Fatalf("crashed run claims completion: %d", res.Completed)
	}
	if got := bus.Count(telemetry.OpFaultCrash); got != 1 {
		t.Fatalf("OpFaultCrash count %d, want 1", got)
	}
}

// TestConcurrentFetchFaultsDegradeNotHang forces every prefetch copy to
// fail: the run must still complete with the correct trace — acquires
// fall back to synchronous fetches (misses), never hangs.
func TestConcurrentFetchFaultsDegradeNotHang(t *testing.T) {
	cfg := ccCfg(4, false)
	cfg.ConcurrentMem = engine.MemPlaneConfig{CacheFactor: 3}
	cfg.Faults = &fault.Plan{Seed: 5, FetchFailRate: 1}
	bus := telemetry.NewBus(0)
	cfg.Telemetry = bus
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatalf("fetch-fault run: %v", err)
	}
	if res.Completed != cfg.NumSubnets {
		t.Fatalf("completed %d/%d", res.Completed, cfg.NumSubnets)
	}
	if bus.Count(telemetry.OpFaultFetch) == 0 {
		t.Fatal("no fetch faults recorded at rate 1")
	}
	// Every async copy failed: no prefetch may ever land — all residency
	// comes from synchronous fetches (misses), and the failures are
	// surfaced as dropped prefetches, keeping the slowdown attributable.
	for _, st := range res.CacheStats {
		if st.Prefetches != 0 {
			t.Fatalf("stage %d landed %d prefetches with FetchFailRate=1", st.Stage, st.Prefetches)
		}
	}
	if snap := bus.Snapshot(); snap.CacheMisses == 0 {
		t.Fatal("no cache misses recorded; acquires cannot all have hit")
	}
	if res.DroppedPrefetches == 0 {
		t.Fatal("failed fetches were not surfaced as dropped prefetches")
	}
}

// cutRecorder captures consistency cuts in memory.
type cutRecorder struct {
	cuts []fault.Cut
}

func (r *cutRecorder) Snapshot(c fault.Cut) error {
	r.cuts = append(r.cuts, c)
	return nil
}

// TestConcurrentCheckpointCuts checks the recorder protocol: cursors are
// non-decreasing, the final cut covers the whole stream, and every cut's
// finished-gap list sits at or above its cursor.
func TestConcurrentCheckpointCuts(t *testing.T) {
	cfg := ccCfg(4, true)
	rec := &cutRecorder{}
	cfg.Checkpoint = rec
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if res.Completed != cfg.NumSubnets {
		t.Fatalf("completed %d/%d", res.Completed, cfg.NumSubnets)
	}
	if len(rec.cuts) == 0 {
		t.Fatal("no cuts recorded")
	}
	prev := -1
	for _, cut := range rec.cuts {
		if cut.Cursor < prev {
			t.Fatalf("cut cursor regressed: %d after %d", cut.Cursor, prev)
		}
		prev = cut.Cursor
		for _, f := range cut.Finished {
			if f < cut.Cursor {
				t.Fatalf("cut %d lists finished seq %d below its own cursor", cut.Cursor, f)
			}
		}
	}
	if final := rec.cuts[len(rec.cuts)-1]; final.Cursor != cfg.NumSubnets {
		t.Fatalf("final cut cursor %d, want %d", final.Cursor, cfg.NumSubnets)
	}
}

// failingRecorder errors on the Nth snapshot.
type failingRecorder struct {
	n     int
	calls int
}

func (r *failingRecorder) Snapshot(fault.Cut) error {
	r.calls++
	if r.calls >= r.n {
		return errors.New("disk full")
	}
	return nil
}

func TestConcurrentRecorderFailureAborts(t *testing.T) {
	cfg := ccCfg(2, false)
	cfg.Checkpoint = &failingRecorder{n: 3}
	_, err := engine.RunConcurrent(context.Background(), cfg)
	if err == nil {
		t.Fatal("recorder failure not surfaced")
	}
	if got := err.Error(); got != "engine: checkpoint recorder: disk full" {
		t.Fatalf("unexpected error: %q", got)
	}
}

// TestConcurrentSeqBaseOffsets runs a renumbered suffix under SeqBase and
// checks every externally visible surface carries global sequence IDs:
// the canonical trace, the observed trace, and telemetry events.
func TestConcurrentSeqBaseOffsets(t *testing.T) {
	cfg := ccCfg(2, false)
	full := supernet.Sample(cfg.Space, cfg.Seed, cfg.NumSubnets)
	const base = 7
	suffix := make([]supernet.Subnet, 0, len(full)-base)
	for i, sub := range full[base:] {
		sub.Seq = i // the engine wants a locally 0-based stream
		suffix = append(suffix, sub)
	}
	cfg.Subnets = suffix
	cfg.SeqBase = base
	bus := telemetry.NewBus(0)
	cfg.Telemetry = bus
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatalf("suffix run: %v", err)
	}
	if res.BaseSeq != base {
		t.Fatalf("BaseSeq %d, want %d", res.BaseSeq, base)
	}
	if res.Completed != len(suffix) {
		t.Fatalf("completed %d/%d", res.Completed, len(suffix))
	}
	for _, ev := range res.Trace.Events {
		if ev.Subnet < base || ev.Subnet >= base+len(suffix) {
			t.Fatalf("canonical trace carries local seq %d (base %d)", ev.Subnet, base)
		}
	}
	for _, ev := range res.ObservedTrace.Events {
		if ev.Subnet < base {
			t.Fatalf("observed trace carries local seq %d (base %d)", ev.Subnet, base)
		}
	}
	for _, ev := range bus.Events() {
		if ev.Subnet >= 0 && int(ev.Subnet) < base {
			t.Fatalf("telemetry event %v carries local seq %d (base %d)", ev.Op, ev.Subnet, base)
		}
	}

	// The suffix trace must replay onto a sequential-prefix net to the
	// uninterrupted run's exact weights — the resume composition law.
	tc := faultTrainCfg(cfg)
	want := train.Sequential(tc, full).Checksum
	prefix := train.Sequential(tc, full[:base])
	got, err := train.ReplayOn(tc, prefix.Net, full[base:], res.Trace)
	if err != nil {
		t.Fatalf("suffix replay: %v", err)
	}
	if got.Checksum != want {
		t.Fatalf("prefix+suffix composition %x != uninterrupted %x", got.Checksum, want)
	}
}

// TestResumedCacheEventsNameGlobalSubnets pins cache-event attribution on
// a resumed incarnation: every hit, miss and stall event must name a
// global subnet at or above the resume cursor, and one whose task — same
// stage, subnet and kind — the run started.
func TestResumedCacheEventsNameGlobalSubnets(t *testing.T) {
	const cursor = 7
	cfg := ccCfg(4, false)
	cfg.ConcurrentMem = engine.MemPlaneConfig{CacheFactor: 3, Predictor: true}
	cfg = cfg.ResumeAt(cfg.ResolveSubnets(), cursor, 1)
	bus := telemetry.NewBus(0)
	cfg.Telemetry = bus
	if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	type task struct {
		stage, subnet int32
		kind          int8
	}
	started := make(map[task]bool)
	evs := bus.Events()
	for _, ev := range evs {
		if ev.Op == telemetry.OpTaskStart {
			started[task{ev.Stage, ev.Subnet, ev.Kind}] = true
		}
	}
	attributed := 0
	for _, ev := range evs {
		if ev.Op != telemetry.OpCacheHit && ev.Op != telemetry.OpCacheMiss && ev.Op != telemetry.OpCacheStall {
			continue
		}
		attributed++
		if ev.Subnet < cursor || !started[task{ev.Stage, ev.Subnet, ev.Kind}] {
			t.Fatalf("%v event names subnet %d (stage %d, %s): below cursor %d or no such task",
				ev.Op, ev.Subnet, ev.Stage, telemetry.KindString(ev.Kind), cursor)
		}
	}
	if attributed == 0 {
		t.Fatal("no attributed cache events on a cached run")
	}
}

// TestSimulatedPlaneRejectsFaultConfig pins the error contract: the
// discrete-event plane refuses fault/checkpoint configuration instead of
// silently ignoring it.
func TestSimulatedPlaneRejectsFaultConfig(t *testing.T) {
	base := ccCfg(2, false)
	pol, err := sched.New("naspipe")
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Faults = &fault.Plan{DropRate: 0.5}
	if _, err := engine.RunContext(context.Background(), cfg, pol); err == nil {
		t.Fatal("simulated plane accepted a fault plan")
	}
	cfg = base
	cfg.Checkpoint = &cutRecorder{}
	if _, err := engine.RunContext(context.Background(), cfg, pol); err == nil {
		t.Fatal("simulated plane accepted a checkpoint recorder")
	}
	cfg = base
	cfg.SeqBase = 3
	if _, err := engine.RunContext(context.Background(), cfg, pol); err == nil {
		t.Fatal("simulated plane accepted SeqBase")
	}
}

// TestFileRecorderEndToEnd drives the real file recorder through a
// concurrent run and resumes state from the file it wrote.
func TestFileRecorderEndToEnd(t *testing.T) {
	cfg := ccCfg(2, false)
	path := filepath.Join(t.TempDir(), "ck.bin")
	ident := fault.Checkpoint{
		Space: cfg.Space.Name, Seed: cfg.Seed, GPUs: 2, NumSubnets: cfg.NumSubnets,
	}
	rec := fault.NewFileRecorder(path, ident, 4, nil)
	if err := rec.Init(); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = rec
	if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The recorder's owner ends the run with a synchronous edge: it waits
	// out the writer, so the file is final and TempDir cleanup finds no
	// save in flight.
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Init, then the due cuts (every 4th and the final one), which the
	// writer coalesces at will.
	if st := rec.Stats(); st.Cuts != cfg.NumSubnets || st.Saves < 2 || st.Saves > 2+cfg.NumSubnets/4 {
		t.Fatalf("recorder stats %+v for %d subnets at every=4", st, cfg.NumSubnets)
	}
	ck, err := fault.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if ck.Cursor != cfg.NumSubnets {
		t.Fatalf("final checkpoint cursor %d, want %d", ck.Cursor, cfg.NumSubnets)
	}
	if ck.Space != cfg.Space.Name || ck.Seed != cfg.Seed {
		t.Fatalf("checkpoint identity drifted: %+v", ck)
	}
}
