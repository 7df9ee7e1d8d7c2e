package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/data"
	"naspipe/internal/engine"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/train"
)

// ccCfg is the shared configuration of the equivalence matrix: a scaled
// space small enough for numeric replay, dependency-dense enough that CSP
// admission actually blocks subnets.
func ccCfg(d int, jitter bool) engine.Config {
	cfg := engine.Config{
		Space:       supernet.NLPc3.Scaled(8, 3),
		Spec:        cluster.Default(d),
		Seed:        7,
		NumSubnets:  18,
		RecordTrace: true,
	}
	if jitter {
		cfg.TimingJitter = 0.3
		cfg.JitterSeed = 11
	}
	return cfg
}

// TestConcurrentTraceEquivalenceMatrix is the PR's core guarantee: across
// pipeline depths and with timing jitter on or off, the concurrent
// executor's trace is bitwise-equal to the sequential reference (as
// produced by the simulator's sequential policy), its observed raw
// interleaving projects to the same per-layer order, and replaying either
// trace through the numeric trainer lands on bitwise-identical weights.
func TestConcurrentTraceEquivalenceMatrix(t *testing.T) {
	for _, d := range []int{1, 2, 4, 8} {
		for _, jitter := range []bool{false, true} {
			t.Run(fmt.Sprintf("gpus=%d/jitter=%v", d, jitter), func(t *testing.T) {
				cfg := ccCfg(d, jitter)
				seq := run(t, "sequential", cfg)
				if seq.Failed {
					t.Fatalf("sequential reference failed: %s", seq.FailReason)
				}
				sim := run(t, "naspipe", cfg)
				if sim.Failed {
					t.Fatalf("simulated naspipe failed: %s", sim.FailReason)
				}
				cc, err := engine.RunConcurrent(context.Background(), cfg)
				if err != nil {
					t.Fatalf("concurrent run: %v", err)
				}
				if cc.Completed != cfg.NumSubnets {
					t.Fatalf("concurrent completed %d/%d", cc.Completed, cfg.NumSubnets)
				}
				if !cc.Trace.Equal(seq.Trace) {
					t.Fatal("concurrent canonical trace diverges from sequential reference")
				}
				if cc.ObservedTrace == nil {
					t.Fatal("no observed trace recorded")
				}
				if !cc.ObservedTrace.PerLayerEqual(seq.Trace) {
					t.Fatal("observed per-layer access order diverges from sequential reference")
				}
				if !sim.Trace.PerLayerEqual(cc.Trace) {
					t.Fatal("simulated and concurrent planes disagree on per-layer order")
				}

				// Numeric ground truth: all three schedules replay to the
				// bitwise-identical weights of strict sequential training.
				tc := train.Config{Space: cfg.Space, Dim: 8, Seed: cfg.Seed,
					BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
				subs := supernet.Sample(cfg.Space, cfg.Seed, cfg.NumSubnets)
				want := train.Sequential(tc, subs).Checksum
				for name, tr := range map[string]*engine.Result{
					"sequential-sim": &seq, "naspipe-sim": &sim, "concurrent": &cc,
				} {
					got, err := train.Replay(tc, subs, tr.Trace)
					if err != nil {
						t.Fatalf("%s replay: %v", name, err)
					}
					if got.Checksum != want {
						t.Fatalf("%s replay checksum %016x, want %016x", name, got.Checksum, want)
					}
				}
			})
		}
	}
}

// TestConcurrentStableAcrossGOMAXPROCS pins Definition 1 against the Go
// scheduler itself: the canonical trace (and hence the training result)
// is identical whether the stage goroutines run on one core or all of
// them.
func TestConcurrentStableAcrossGOMAXPROCS(t *testing.T) {
	cfg := ccCfg(4, true)
	ref, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := engine.RunConcurrent(context.Background(), cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !got.Trace.Equal(ref.Trace) {
			t.Fatalf("GOMAXPROCS=%d changed the canonical trace", procs)
		}
		if !got.ObservedTrace.PerLayerEqual(ref.Trace) {
			t.Fatalf("GOMAXPROCS=%d violated the per-layer order", procs)
		}
	}
}

// TestConcurrentRepeatedRunsDeterministic hammers the executor: many
// back-to-back runs under jitter must all verify and produce the same
// canonical trace (the observed interleavings are free to differ).
func TestConcurrentRepeatedRunsDeterministic(t *testing.T) {
	cfg := ccCfg(4, true)
	cfg.NumSubnets = 12
	ref, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		got, err := engine.RunConcurrent(context.Background(), cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !got.Trace.Equal(ref.Trace) {
			t.Fatalf("run %d changed the canonical trace", i)
		}
	}
}

// TestConcurrentContentionCounters checks the per-stage instrumentation:
// every stage reports one forward and one backward task per subnet, and
// cross-stage notifications flow on multi-stage pipelines.
func TestConcurrentContentionCounters(t *testing.T) {
	cfg := ccCfg(4, false)
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contention) != res.D {
		t.Fatalf("contention rows %d, want %d", len(res.Contention), res.D)
	}
	for _, c := range res.Contention {
		if c.Tasks != int64(2*cfg.NumSubnets) {
			t.Fatalf("stage %d ran %d tasks, want %d", c.Stage, c.Tasks, 2*cfg.NumSubnets)
		}
	}
	var notes int64
	for _, c := range res.Contention {
		notes += c.Notes
	}
	// Every backward notes at most the other D-1 stages — only those that
	// run a written layer's next reader — so the applied count is bounded,
	// not exact.
	max := int64(cfg.NumSubnets * res.D * (res.D - 1))
	if notes == 0 || notes > max {
		t.Fatalf("total notes %d, want in (0, %d]", notes, max)
	}
}

// TestConcurrentCancellation: a pre-cancelled context returns promptly
// with a partial result and ctx.Err().
func TestConcurrentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := engine.RunConcurrent(ctx, ccCfg(4, false))
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Completed != 0 || !res.Deadlock {
		t.Fatalf("cancelled run reported %d completed, deadlock=%v", res.Completed, res.Deadlock)
	}
}

// TestConcurrentInvalidSpec: config validation errors, not panics.
func TestConcurrentInvalidSpec(t *testing.T) {
	cfg := ccCfg(2, false)
	cfg.Spec.GPUsPerHost = 0
	if _, err := engine.RunConcurrent(context.Background(), cfg); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// BenchmarkConcurrentExecutor measures the real-goroutine pipeline.
func BenchmarkConcurrentExecutor(b *testing.B) {
	cfg := ccCfg(4, false)
	cfg.RecordTrace = false
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentTelemetry is the same pipeline with the telemetry
// plane live: the per-stage batched publish path, which is where
// high-rate task/flow events would otherwise serialize every stage on
// the bus mutex.
func BenchmarkConcurrentTelemetry(b *testing.B) {
	cfg := ccCfg(4, false)
	cfg.RecordTrace = false
	for i := 0; i < b.N; i++ {
		cfg.Telemetry = telemetry.NewBus(1 << 16)
		if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentTraced is the configuration every verified run
// uses: the access trace on (the Definition 1 check), no bus.
func BenchmarkConcurrentTraced(b *testing.B) {
	cfg := ccCfg(4, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ccMemCfg is ccCfg plus the paper's memory-context configuration: cache
// factor 3 (executing + evicting + prefetched subnet) with the Algorithm 3
// predictor driving prefetch.
func ccMemCfg(d int, jitter bool) engine.Config {
	cfg := ccCfg(d, jitter)
	cfg.ConcurrentMem = engine.MemPlaneConfig{CacheFactor: 3, Predictor: true}
	return cfg
}

// TestConcurrentMemoryPlaneMatrix drives the predictor and per-stage
// caches across pipeline depths and jitter, checking the PR's central
// claim: prefetching moves data, never scheduling — the canonical trace
// (and the per-layer projection of the observed one) is identical to a
// cache-less run, while the cache reports real hit traffic and the
// Algorithm 3 carry path (pending-backward records travelling upstream
// with gradients) demonstrably fires.
func TestConcurrentMemoryPlaneMatrix(t *testing.T) {
	for _, d := range []int{2, 4, 8} {
		for _, jitter := range []bool{false, true} {
			t.Run(fmt.Sprintf("gpus=%d/jitter=%v", d, jitter), func(t *testing.T) {
				plain, err := engine.RunConcurrent(context.Background(), ccCfg(d, jitter))
				if err != nil {
					t.Fatalf("cache-less reference: %v", err)
				}
				cfg := ccMemCfg(d, jitter)
				res, err := engine.RunConcurrent(context.Background(), cfg)
				if err != nil {
					t.Fatalf("memory-plane run: %v", err)
				}
				if res.Completed != cfg.NumSubnets {
					t.Fatalf("completed %d/%d", res.Completed, cfg.NumSubnets)
				}
				if !res.Trace.Equal(plain.Trace) {
					t.Fatal("enabling the cache changed the canonical trace")
				}
				if !res.ObservedTrace.PerLayerEqual(plain.Trace) {
					t.Fatal("observed per-layer order diverges under the memory plane")
				}
				if len(res.CacheStats) != d {
					t.Fatalf("cache stats rows %d, want %d", len(res.CacheStats), d)
				}
				var hits, misses, prefetches int
				for _, s := range res.CacheStats {
					hits += s.Hits
					misses += s.Misses
					prefetches += s.Prefetches
				}
				if hits+misses == 0 || prefetches == 0 {
					t.Fatalf("cache saw no traffic: hits=%d misses=%d prefetches=%d",
						hits, misses, prefetches)
				}
				if res.CacheHitRate <= 0 || res.CacheHitRate > 1 {
					t.Fatalf("hit rate %v out of range", res.CacheHitRate)
				}
				if want := float64(hits) / float64(hits+misses); res.CacheHitRate != want {
					t.Fatalf("aggregate hit rate %v inconsistent with stage stats %v",
						res.CacheHitRate, want)
				}
				var carried int64
				for _, c := range res.Contention {
					carried += c.Carried
				}
				if c0 := res.Contention[0].Carried; c0 != 0 {
					t.Fatalf("stage 0 carried %d records upstream of itself", c0)
				}
				// Deeper pipelines make the carry path (Algorithm 3 lines
				// 10–11) unavoidable: blocked forwards pile up at later
				// stages while their releasing writers are still in flight.
				if d >= 4 && carried == 0 {
					t.Fatal("no pending-backward records carried upstream")
				}
			})
		}
	}
}

// TestConcurrentCacheHitRateMeetsPaperTarget pins Table 2's headline on
// the default bench workload: with the Algorithm 3 predictor and a
// 3-subnet cache footprint, the prefetcher keeps the hit rate at or above
// 85% while the causal trace stays intact.
func TestConcurrentCacheHitRateMeetsPaperTarget(t *testing.T) {
	cfg := ccMemCfg(8, true)
	cfg.NumSubnets = 48
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHitRate < 0.85 {
		t.Fatalf("hit rate %.3f below the paper's ~0.9 target (want >= 0.85)", res.CacheHitRate)
	}
	if res.CachedParamBytes <= 0 || res.CachedParamBytes >= res.SupernetBytes {
		t.Fatalf("cache budget %d not a strict subset of the supernet (%d bytes)",
			res.CachedParamBytes, res.SupernetBytes)
	}
	if res.CPUMemBytes != res.SupernetBytes {
		t.Fatalf("CPU stash %d, want whole supernet %d", res.CPUMemBytes, res.SupernetBytes)
	}
	if res.StallMs < 0 {
		t.Fatalf("negative stall time %v", res.StallMs)
	}
}

// TestConcurrentCacheWithoutPredictor: the cache alone (arrival-driven
// prefetch only) still runs to completion with a verified trace and
// carries no Algorithm 3 records.
func TestConcurrentCacheWithoutPredictor(t *testing.T) {
	cfg := ccCfg(4, false)
	cfg.ConcurrentMem = engine.MemPlaneConfig{CacheFactor: 3}
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHitRate <= 0 {
		t.Fatalf("arrival-driven prefetch earned no hits: %v", res.CacheHitRate)
	}
	for _, c := range res.Contention {
		if c.Carried != 0 {
			t.Fatalf("stage %d carried %d records with the predictor off", c.Stage, c.Carried)
		}
	}
}

// TestConcurrentCacheDisabledKeepsMemoryFieldsInert: PR 1 behaviour is
// preserved when ConcurrentMem is zero — no cache stats, N/A hit rate.
func TestConcurrentCacheDisabledKeepsMemoryFieldsInert(t *testing.T) {
	res, err := engine.RunConcurrent(context.Background(), ccCfg(2, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHitRate != -1 {
		t.Fatalf("hit rate %v, want -1 (N/A)", res.CacheHitRate)
	}
	if res.CacheStats != nil || res.DroppedPrefetches != 0 || res.StallMs != 0 {
		t.Fatalf("memory fields not inert: %+v", res.CacheStats)
	}
}

// TestConcurrentMemConfigValidation: the predictor needs a cache to
// prefetch into, and negative knobs are rejected.
func TestConcurrentMemConfigValidation(t *testing.T) {
	cfg := ccCfg(2, false)
	cfg.ConcurrentMem = engine.MemPlaneConfig{Predictor: true}
	if _, err := engine.RunConcurrent(context.Background(), cfg); err == nil {
		t.Fatal("predictor without a cache accepted")
	}
	cfg.ConcurrentMem = engine.MemPlaneConfig{CacheFactor: -1}
	if _, err := engine.RunConcurrent(context.Background(), cfg); err == nil {
		t.Fatal("negative cache factor accepted")
	}
	cfg.ConcurrentMem = engine.MemPlaneConfig{CacheFactor: 3, FetchMsScale: -0.5}
	if _, err := engine.RunConcurrent(context.Background(), cfg); err == nil {
		t.Fatal("negative fetch scale accepted")
	}
}

// TestConcurrentMemoryPlaneDeterministicTrace: repeated memory-plane runs
// under jitter keep producing the same canonical trace — the cache cannot
// leak nondeterminism into the schedule.
func TestConcurrentMemoryPlaneDeterministicTrace(t *testing.T) {
	cfg := ccMemCfg(4, true)
	cfg.NumSubnets = 12
	ref, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := engine.RunConcurrent(context.Background(), cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !got.Trace.Equal(ref.Trace) {
			t.Fatalf("run %d changed the canonical trace", i)
		}
	}
}

// TestContextPushOverlapsUpstreamStall pins the order both planes share:
// a task pushes the neighbour's context the moment it starts, before it
// acquires its own, so the neighbour's copy runs during this stage's
// stall. The stream makes the consequence exact rather than likely. Every
// subnet is the same subnet, so the run is one causal chain — a single
// task in flight, each stage's context evicted by the backward before the
// next forward — and at two GPUs with no predictor every forward on stage
// 0 from subnet 1 on is a synchronous miss: a stall of its whole
// partition's copy, starting after the push. Stage 1's partition is the
// smaller one, its copy channel is idle, so its copy lands before stage 0
// wakes, let alone computes and hands over: a hit, on monotonic clocks, by
// construction. Pushed after the stall instead, the same copy has a
// scheduler yield and a channel hop to hide behind, and every one of those
// acquires is late. Subnet 0 is left out: its stage-0 wait is anchored at
// refill's earlier request rather than at the acquire, so only a timing
// margin orders it against the push.
func TestContextPushOverlapsUpstreamStall(t *testing.T) {
	const n = 12
	subs := make([]supernet.Subnet, n)
	for i := range subs {
		subs[i] = supernet.Subnet{Seq: i, Choices: make([]int, 8)} // choice 0 everywhere
	}
	bus := telemetry.NewBus(0)
	cfg := engine.Config{
		Space:   supernet.NLPc3.Scaled(8, 3),
		Spec:    cluster.Default(2),
		Seed:    7,
		Subnets: subs,
		// 0.2: the ≈ 6 ms modelled copies last ≈ 1.3 ms, far beyond a hop.
		ConcurrentMem: engine.MemPlaneConfig{CacheFactor: 3, FetchMsScale: 0.2},
		Telemetry:     bus,
	}
	w, err := engine.NewWorld(cfg, engine.PartitionBalanced)
	if err != nil {
		t.Fatal(err)
	}
	var partBytes [2]int64
	for k := range partBytes {
		for _, id := range w.StageLayerIDs(0, k) {
			partBytes[k] += w.Net.Meta[id].ParamBytes
		}
	}
	if partBytes[1] == 0 || partBytes[1] > partBytes[0] {
		t.Fatalf("stream no longer fits the argument: partition bytes %v, want 0 < stage 1 <= stage 0", partBytes)
	}
	res, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var acquires int
	for _, ev := range bus.Events() {
		if ev.Stage != 1 || ev.Subnet < 1 {
			continue
		}
		switch ev.Op {
		case telemetry.OpCacheHit:
			acquires++
		case telemetry.OpCacheMiss:
			t.Errorf("stage 1 %s of subnet %d found %d layers not resident",
				telemetry.KindString(ev.Kind), ev.Subnet, ev.Arg)
		}
	}
	if want := 2 * (n - 1); acquires != want {
		t.Fatalf("stage 1 logged %d all-hit acquires after subnet 0, want %d", acquires, want)
	}
	// The upstream stalls the copies hid behind were real.
	if st := res.CacheStats[0]; st.Misses == 0 || st.StallMs <= 0 {
		t.Fatalf("stage 0 never stalled: %+v", st)
	}
}
