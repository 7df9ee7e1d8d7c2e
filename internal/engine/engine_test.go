package engine_test

import (
	"testing"
	"testing/quick"

	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
)

func run(t *testing.T, policyName string, cfg engine.Config) engine.Result {
	t.Helper()
	p, err := sched.New(policyName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func smallCfg(space supernet.Space, d, n int) engine.Config {
	return engine.Config{Space: space, Spec: cluster.Default(d), Seed: 1, NumSubnets: n}
}

func TestAllPoliciesComplete(t *testing.T) {
	for _, name := range sched.Names() {
		res := run(t, name, smallCfg(supernet.CVc2, 4, 24))
		if res.Failed {
			t.Errorf("%s: failed: %s", name, res.FailReason)
			continue
		}
		if res.Deadlock || res.Completed != 24 {
			t.Errorf("%s: completed %d/24 (deadlock=%v)", name, res.Completed, res.Deadlock)
		}
		if res.TotalMs <= 0 || res.SamplesPerSec <= 0 {
			t.Errorf("%s: degenerate timing %+v", name, res)
		}
		if res.BubbleRatio < 0 || res.BubbleRatio >= 1 {
			t.Errorf("%s: bubble %f out of range", name, res.BubbleRatio)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, name := range []string{"naspipe", "gpipe", "pipedream", "vpipe"} {
		cfg := smallCfg(supernet.CVc2, 4, 20)
		cfg.RecordTrace = true
		a := run(t, name, cfg)
		b := run(t, name, cfg)
		if a.TotalMs != b.TotalMs || a.Completed != b.Completed || a.Batch != b.Batch {
			t.Errorf("%s: runs differ: %+v vs %+v", name, a.TotalMs, b.TotalMs)
		}
		if !a.Trace.Equal(b.Trace) {
			t.Errorf("%s: traces differ between identical runs", name)
		}
	}
}

func TestGPipeFailsOnNLPc0(t *testing.T) {
	// §5.1: GPipe and PipeDream cannot run NLP.c0 — the supernet's
	// parameters exceed GPU memory; NASPipe and VPipe can.
	for _, name := range []string{"gpipe", "pipedream"} {
		res := run(t, name, smallCfg(supernet.NLPc0, 8, 8))
		if !res.Failed {
			t.Errorf("%s should fail on NLP.c0", name)
		}
	}
	for _, name := range []string{"naspipe", "vpipe"} {
		res := run(t, name, smallCfg(supernet.NLPc0, 8, 8))
		if res.Failed {
			t.Errorf("%s should run NLP.c0: %s", name, res.FailReason)
		}
	}
}

func TestNASPipeBatchAdvantage(t *testing.T) {
	// Context eviction frees memory for larger batches (Table 2): NASPipe
	// must support a substantially larger batch than GPipe, and PipeDream
	// about half of GPipe (activation stashing).
	nas := run(t, "naspipe", smallCfg(supernet.NLPc1, 8, 8))
	gp := run(t, "gpipe", smallCfg(supernet.NLPc1, 8, 8))
	pd := run(t, "pipedream", smallCfg(supernet.NLPc1, 8, 8))
	if nas.Batch < 3*gp.Batch {
		t.Errorf("NASPipe batch %d not >= 3x GPipe %d", nas.Batch, gp.Batch)
	}
	if pd.Batch >= gp.Batch {
		t.Errorf("PipeDream batch %d should be below GPipe %d", pd.Batch, gp.Batch)
	}
}

func TestCSPTraceSequentialEquivalent(t *testing.T) {
	// The heart of the paper: NASPipe's schedule must be equivalent to
	// sequential training on every layer, at any GPU count.
	for _, d := range []int{1, 2, 4, 8} {
		cfg := smallCfg(supernet.NLPc3, d, 20)
		cfg.RecordTrace = true
		res := run(t, "naspipe", cfg)
		if res.Deadlock {
			t.Fatalf("D=%d deadlock", d)
		}
		if v := res.Trace.FirstViolation(); v != nil {
			t.Errorf("D=%d: CSP trace violates sequential equivalence: layer %d: %s",
				d, v.Layer, v.Detail)
		}
	}
}

func TestSequentialPolicyTraceEquivalent(t *testing.T) {
	cfg := smallCfg(supernet.CVc3, 4, 16)
	cfg.RecordTrace = true
	res := run(t, "sequential", cfg)
	if v := res.Trace.FirstViolation(); v != nil {
		t.Errorf("sequential trace violates: %+v", v)
	}
}

func TestBSPAndASPTracesViolate(t *testing.T) {
	// GPipe (BSP) and PipeDream (ASP) do not preserve causal
	// dependencies: on a dependency-dense space their traces must violate
	// sequential equivalence.
	for _, name := range []string{"gpipe", "pipedream"} {
		cfg := smallCfg(supernet.NLPc3, 4, 24)
		cfg.RecordTrace = true
		res := run(t, name, cfg)
		if res.Trace.FirstViolation() == nil {
			t.Errorf("%s trace unexpectedly sequential-equivalent", name)
		}
	}
}

func TestCSPTraceIdenticalPerLayerAcrossGPUCounts(t *testing.T) {
	// Table 4: the per-layer access order under CSP is identical on any
	// number of GPUs.
	var traces []*trace.Trace
	for _, d := range []int{2, 4, 8} {
		cfg := smallCfg(supernet.NLPc3, d, 20)
		cfg.RecordTrace = true
		res := run(t, "naspipe", cfg)
		traces = append(traces, res.Trace)
	}
	for i := 1; i < len(traces); i++ {
		if !traces[0].PerLayerEqual(traces[i]) {
			t.Errorf("CSP per-layer order differs between GPU counts (run %d)", i)
		}
	}
}

func TestBSPTraceChangesAcrossGPUCounts(t *testing.T) {
	get := func(d int) *trace.Trace {
		cfg := smallCfg(supernet.CVc3, d, 24)
		cfg.RecordTrace = true
		res := run(t, "gpipe", cfg)
		if res.Failed {
			t.Fatalf("GPipe failed on CV.c3 at D=%d: %s", d, res.FailReason)
		}
		return res.Trace
	}
	if get(4).PerLayerEqual(get(8)) {
		t.Error("GPipe per-layer order unexpectedly identical across GPU counts")
	}
}

func TestCacheHitRates(t *testing.T) {
	// Table 2 shape: NASPipe's predictor yields high hit rates; VPipe's
	// on-demand swap yields near-reuse-probability rates; non-swapping
	// systems report N/A (-1).
	cfg := engine.Config{Space: supernet.NLPc2, Spec: cluster.Default(8), Seed: 1, NumSubnets: 120, InflightLimit: 48}
	nas := run(t, "naspipe", cfg)
	vp := run(t, "vpipe", cfg)
	gp := run(t, "gpipe", cfg)
	if nas.CacheHitRate < 0.8 {
		t.Errorf("NASPipe hit rate %f below 0.8", nas.CacheHitRate)
	}
	if vp.CacheHitRate > 0.15 {
		t.Errorf("VPipe hit rate %f implausibly high", vp.CacheHitRate)
	}
	if gp.CacheHitRate != -1 {
		t.Errorf("GPipe hit rate should be N/A, got %f", gp.CacheHitRate)
	}
}

func TestBubbleOrderingAcrossSpaces(t *testing.T) {
	// The paper's insight: larger spaces -> fewer dependencies -> lower
	// CSP bubble ratio. NLP.c0 (96 choices) must beat NLP.c3 (24).
	cfg := func(sp supernet.Space) engine.Config {
		return engine.Config{Space: sp, Spec: cluster.Default(8), Seed: 1, NumSubnets: 120, InflightLimit: 48}
	}
	big := run(t, "naspipe", cfg(supernet.NLPc0))
	small := run(t, "naspipe", cfg(supernet.NLPc3))
	if big.BubbleRatio >= small.BubbleRatio {
		t.Errorf("bubble did not fall with space size: c0=%f c3=%f", big.BubbleRatio, small.BubbleRatio)
	}
}

func TestAblationOrdering(t *testing.T) {
	// Figure 6: full NASPipe beats each ablation on a large space.
	cfg := engine.Config{Space: supernet.NLPc1, Spec: cluster.Default(8), Seed: 1, NumSubnets: 120, InflightLimit: 48}
	full := run(t, "naspipe", cfg)
	for _, name := range []string{"naspipe-noscheduler", "naspipe-nopredictor"} {
		abl := run(t, name, cfg)
		if abl.Failed {
			t.Errorf("%s failed: %s", name, abl.FailReason)
			continue
		}
		if abl.SamplesPerSec >= full.SamplesPerSec {
			t.Errorf("%s (%f samples/s) not below full NASPipe (%f)", name, abl.SamplesPerSec, full.SamplesPerSec)
		}
	}
	// Mirroring trades dependency latency (a mirrored layer's write may
	// land on a lower stage of the earlier subnet, lengthening the wait)
	// against pipeline balance; on dependency-dense spaces the net effect
	// is small in either direction. Allow ±10%.
	mir := run(t, "naspipe-nomirroring", cfg)
	if mir.SamplesPerSec > full.SamplesPerSec*1.10 || mir.SamplesPerSec < full.SamplesPerSec*0.5 {
		t.Errorf("w/o mirroring %f outside plausible band of full %f", mir.SamplesPerSec, full.SamplesPerSec)
	}
}

func TestMirroringTrafficOnlyWithBalancedPartitions(t *testing.T) {
	cfg := smallCfg(supernet.NLPc2, 4, 16)
	nas := run(t, "naspipe", cfg)
	vp := run(t, "vpipe", cfg)
	if nas.MirrorBytes == 0 {
		t.Error("NASPipe balanced partitions should mirror some layers")
	}
	if vp.MirrorBytes != 0 {
		t.Errorf("static-partition VPipe mirrored %d bytes", vp.MirrorBytes)
	}
}

func TestExecTimeBalancedBeatsStatic(t *testing.T) {
	// Table 2: NASPipe's balanced per-subnet partitions give lower
	// per-subnet execution time than VPipe's static partition.
	cfg := engine.Config{Space: supernet.NLPc1, Spec: cluster.Default(8), Seed: 1, NumSubnets: 60, InflightLimit: 48}
	nas := run(t, "naspipe", cfg)
	vp := run(t, "vpipe", cfg)
	if nas.ExecMsAvg >= vp.ExecMsAvg {
		t.Errorf("NASPipe exec %f not below VPipe %f", nas.ExecMsAvg, vp.ExecMsAvg)
	}
}

func TestSingleGPURuns(t *testing.T) {
	res := run(t, "naspipe", smallCfg(supernet.CVc3, 1, 10))
	if res.Failed || res.Deadlock || res.Completed != 10 {
		t.Fatalf("single-GPU run broken: %+v", res)
	}
}

func TestScalabilityALUGrowsWithGPUs(t *testing.T) {
	// Figure 7: total ALU grows (sub-linearly) with GPU count.
	prev := 0.0
	for _, d := range []int{4, 8, 16} {
		cfg := engine.Config{Space: supernet.NLPc1, Spec: cluster.Default(d), Seed: 1, NumSubnets: 96, InflightLimit: 6 * d}
		res := run(t, "naspipe", cfg)
		if res.ALUTotal <= prev {
			t.Errorf("total ALU did not grow at D=%d: %f <= %f", d, res.ALUTotal, prev)
		}
		prev = res.ALUTotal
	}
}

// Property: for random small spaces and GPU counts, NASPipe always
// completes without deadlock and its trace is sequential-equivalent.
func TestQuickCSPAlwaysCorrect(t *testing.T) {
	f := func(seed uint64, dRaw, blocksRaw, choicesRaw uint8) bool {
		d := int(dRaw)%6 + 1
		blocks := int(blocksRaw)%10 + 2
		choices := int(choicesRaw)%6 + 1
		sp := supernet.NLPc3.Scaled(blocks, choices)
		cfg := engine.Config{Space: sp, Spec: cluster.Default(d), Seed: seed, NumSubnets: 12, RecordTrace: true}
		p, err := sched.New("naspipe")
		if err != nil {
			return false
		}
		res, err := engine.Run(cfg, p)
		if err != nil {
			return false
		}
		if res.Failed {
			return true // tiny spaces can legitimately fail batch sizing? (should not, but not a CSP property)
		}
		if res.Deadlock || res.Completed != 12 {
			return false
		}
		return res.Trace.FirstViolation() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: engine results are pure functions of the config for every
// policy.
func TestQuickDeterminism(t *testing.T) {
	names := sched.Names()
	f := func(seed uint64, pick uint8) bool {
		name := names[int(pick)%len(names)]
		cfg := engine.Config{Space: supernet.CVc3, Spec: cluster.Default(4), Seed: seed, NumSubnets: 10}
		p1, _ := sched.New(name)
		p2, _ := sched.New(name)
		a, errA := engine.Run(cfg, p1)
		b, errB := engine.Run(cfg, p2)
		if errA != nil || errB != nil {
			return false
		}
		return a.TotalMs == b.TotalMs && a.Completed == b.Completed &&
			a.BubbleRatio == b.BubbleRatio && a.CacheHitRate == b.CacheHitRate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineNASPipe(b *testing.B) {
	cfg := engine.Config{Space: supernet.NLPc1, Spec: cluster.Default(8), Seed: 1, NumSubnets: 60}
	for i := 0; i < b.N; i++ {
		p, _ := sched.New("naspipe")
		_, _ = engine.Run(cfg, p)
	}
}

func TestFewerBlocksThanStages(t *testing.T) {
	// A subnet shallower than the pipeline leaves stages with empty
	// partitions; they must relay activations without wedging the run.
	sp := supernet.CVc3.Scaled(4, 3)
	res := run(t, "naspipe", smallCfg(sp, 8, 12))
	if res.Failed || res.Deadlock || res.Completed != 12 {
		t.Fatalf("shallow-subnet run broken: %+v", res)
	}
}

func TestEngineConservationInvariants(t *testing.T) {
	cfg := smallCfg(supernet.NLPc2, 8, 60)
	res := run(t, "naspipe", cfg)
	var busy float64
	for _, b := range res.StageBusyMs {
		busy += b
	}
	if busy > float64(res.D)*res.TotalMs+1e-6 {
		t.Fatalf("busy time %f exceeds wall capacity %f", busy, float64(res.D)*res.TotalMs)
	}
	if res.BubbleRatio < 0 || res.BubbleRatio > 1 {
		t.Fatalf("bubble %f out of range", res.BubbleRatio)
	}
	if res.StallMs < 0 {
		t.Fatalf("negative stall %f", res.StallMs)
	}
	if res.GPUMemBytes > int64(res.D)*cluster.Default(8).GPUMemBytes {
		t.Fatalf("GPU memory accounting exceeds physical capacity")
	}
}

func TestSpansRecordedOnlyWithTrace(t *testing.T) {
	cfg := smallCfg(supernet.CVc3, 4, 8)
	plain := run(t, "naspipe", cfg)
	if plain.Spans != nil {
		t.Fatal("spans recorded without RecordTrace")
	}
	cfg.RecordTrace = true
	traced := run(t, "naspipe", cfg)
	// Every task (2 per subnet per stage) must have a span.
	want := 8 * 4 * 2
	if len(traced.Spans) != want {
		t.Fatalf("spans %d want %d", len(traced.Spans), want)
	}
	for _, s := range traced.Spans {
		if s.EndMs < s.StartMs || s.StallMs < 0 {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

func TestRenderTimelineShape(t *testing.T) {
	cfg := smallCfg(supernet.CVc3, 3, 5)
	cfg.RecordTrace = true
	res := run(t, "naspipe", cfg)
	out := engine.RenderTimeline(res.Spans, 3, 60, res.TotalMs)
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 4 { // header + 3 stage rows
		t.Fatalf("timeline has %d lines:\n%s", lines, out)
	}
	if engine.RenderTimeline(nil, 2, 40, 0) != "(empty timeline)\n" {
		t.Fatal("empty timeline handling broken")
	}
}

func TestInjectedSubnetStream(t *testing.T) {
	sp := supernet.CVc3
	subs := supernet.Sample(sp, 99, 10)
	cfg := smallCfg(sp, 4, 0)
	cfg.Subnets = subs
	cfg.RecordTrace = true
	res := run(t, "naspipe", cfg)
	if res.Completed != 10 {
		t.Fatalf("injected stream: completed %d", res.Completed)
	}
	// The trace must reference exactly the injected subnets' layers.
	for _, ev := range res.Trace.Events {
		b, c := sp.BlockChoice(ev.Layer)
		if subs[ev.Subnet].Choices[b] != c {
			t.Fatal("trace references layers outside the injected stream")
		}
	}
}

func TestJitterChangesTimelineNotSemantics(t *testing.T) {
	// Definition 1's "potentially on a different cluster": perturb every
	// task's duration (different kernels, different silicon). The CSP
	// wall-clock schedule changes, but the per-layer access order — and
	// therefore the training result — must not.
	base := smallCfg(supernet.NLPc3, 4, 20)
	base.RecordTrace = true
	var traces []*trace.Trace
	var totals []float64
	for _, js := range []uint64{0, 1, 2} {
		cfg := base
		if js > 0 {
			cfg.TimingJitter = 0.3
			cfg.JitterSeed = js
		}
		res := run(t, "naspipe", cfg)
		if res.Deadlock {
			t.Fatalf("jitter seed %d deadlocked", js)
		}
		traces = append(traces, res.Trace)
		totals = append(totals, res.TotalMs)
	}
	if totals[1] == totals[0] && totals[2] == totals[0] {
		t.Fatal("jitter had no timing effect")
	}
	for i := 1; i < len(traces); i++ {
		if !traces[0].PerLayerEqual(traces[i]) {
			t.Fatalf("jitter seed %d changed the per-layer access order", i)
		}
		if v := traces[i].FirstViolation(); v != nil {
			t.Fatalf("jitter seed %d broke CSP: %+v", i, v)
		}
	}
}

func TestJitterChangesBSPSemantics(t *testing.T) {
	// The contrast: under BSP, timing perturbations can reorder accesses
	// — on some spaces/seeds the per-layer order survives by luck, so
	// assert the weaker, always-true property: the BSP trace violates
	// sequential order regardless of jitter, while CSP never does.
	cfg := smallCfg(supernet.NLPc3, 4, 24)
	cfg.RecordTrace = true
	cfg.TimingJitter = 0.3
	cfg.JitterSeed = 7
	res := run(t, "gpipe", cfg)
	if res.Trace.FirstViolation() == nil {
		t.Fatal("jittered BSP trace unexpectedly sequential-equivalent")
	}
}
