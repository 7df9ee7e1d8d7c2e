package naspipe_test

import (
	"context"
	"strings"
	"testing"

	"naspipe"
	"naspipe/internal/engine"
	"naspipe/internal/explore"
	"naspipe/internal/telemetry"
)

func runnerCfg(gpus, n int) naspipe.Config {
	return naspipe.Config{
		Space:       naspipe.NLPc3.Scaled(8, 3),
		Spec:        naspipe.DefaultCluster(gpus),
		Seed:        3,
		NumSubnets:  n,
		RecordTrace: true,
	}
}

// runPolicy runs cfg on the simulated plane under the named policy.
func runPolicy(cfg naspipe.Config, name string) (naspipe.Result, error) {
	p, err := naspipe.NewPolicy(name)
	if err != nil {
		return naspipe.Result{}, err
	}
	return naspipe.Run(cfg, p)
}

// TestRunnerDefaultsMatchRunPolicy: the default Runner runs the naspipe
// policy on the simulated plane, exactly as Run does.
func TestRunnerDefaultsMatchRunPolicy(t *testing.T) {
	cfg := runnerCfg(4, 16)
	r, err := naspipe.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runPolicy(cfg, "naspipe")
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalMs != want.TotalMs || got.Completed != want.Completed ||
		!got.Trace.Equal(want.Trace) {
		t.Fatal("default Runner diverges from Run under the naspipe policy")
	}
}

func TestRunnerExecutorPlanesAgree(t *testing.T) {
	cfg := runnerCfg(4, 16)
	sim, err := naspipe.NewRunner(naspipe.WithExecutor(naspipe.ExecutorSimulated))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := naspipe.NewRunner(naspipe.WithExecutor(naspipe.ExecutorConcurrent))
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ccRes, err := cc.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !simRes.Trace.PerLayerEqual(ccRes.Trace) {
		t.Fatal("execution planes disagree on the per-layer access order")
	}
	if ccRes.ObservedTrace == nil || len(ccRes.Contention) != ccRes.D {
		t.Fatal("concurrent plane did not report observed trace / contention")
	}
	if simRes.ObservedTrace != nil || simRes.Contention != nil {
		t.Fatal("simulated plane should not fill concurrent-only fields")
	}
}

// TestRunnerOptionValidation: an unknown plane fails at construction,
// and a JobSpec naming a non-CSP policy for the concurrent plane says
// why it cannot run.
func TestRunnerOptionValidation(t *testing.T) {
	if _, err := naspipe.NewRunner(naspipe.WithExecutor(naspipe.ExecutorKind(99))); err == nil {
		t.Fatal("unknown executor accepted")
	}
	spec := naspipe.JobSpec{Space: "NLP.c1", Policy: "gpipe", Executor: "concurrent", GPUs: 4, Subnets: 8}
	if err := spec.Validate(); err == nil {
		t.Fatal("concurrent executor must reject non-CSP policies")
	} else if !strings.Contains(err.Error(), "CSP") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestRunnerWithTraceOverride(t *testing.T) {
	cfg := runnerCfg(2, 8)
	cfg.RecordTrace = false
	r, err := naspipe.NewRunner(naspipe.WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("WithTrace(true) did not force trace recording")
	}
}

func TestRunInvalidConfigsAreErrors(t *testing.T) {
	cfg := runnerCfg(4, 0)
	subs := naspipe.SampleSubnets(cfg.Space, cfg.Seed, 4)
	subs[2].Seq = 7 // gapped sequence IDs
	cfg.Subnets = subs
	if _, err := runPolicy(cfg, "naspipe"); err == nil {
		t.Fatal("gapped subnet stream accepted")
	}
	r, err := naspipe.NewRunner(naspipe.WithExecutor(naspipe.ExecutorConcurrent))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), cfg); err == nil {
		t.Fatal("gapped subnet stream accepted by the concurrent plane")
	}
	bad := runnerCfg(4, 8)
	bad.Spec.GPUsPerHost = 0
	if _, err := runPolicy(bad, "naspipe"); err == nil {
		t.Fatal("invalid cluster spec accepted")
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := naspipe.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, runnerCfg(4, 64)); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestAllExperimentsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	o := naspipe.QuickExperimentOptions()
	o.Parallelism = 1
	serial, err := naspipe.AllExperimentsContext(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 4
	fanned, err := naspipe.AllExperimentsContext(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if serial != fanned {
		t.Fatal("parallel experiment harness changed the report output")
	}
}

func TestSearchContextCancellation(t *testing.T) {
	sp := naspipe.NLPc1.Scaled(6, 2)
	cfg := naspipe.TrainConfig{Space: sp, Dim: 8, Seed: 1, BatchSize: 2, LR: 0.05}
	subs := naspipe.SampleSubnets(sp, 1, 8)
	trained := naspipe.TrainSequential(cfg, subs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := explore.SearchContext(ctx, cfg, trained.Net, naspipe.DefaultSearch(1))
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Evaluated == 0 {
		t.Fatal("cancelled search should still return the seeded population")
	}
}

// TestRunnerMemoryPlaneOptions wires a JobSpec's cache_factor and
// predictor end to end: the spec lowers a predictor without a cache
// factor to the paper's factor 3, the concurrent plane reports real
// cache traffic, and the trace still equals the cache-less run's.
func TestRunnerMemoryPlaneOptions(t *testing.T) {
	trace := true
	spec := naspipe.JobSpec{
		Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3, Executor: "concurrent",
		GPUs: 4, Subnets: 16, Seed: 3, Trace: &trace,
	}
	plainRes, _, err := naspipe.RunJob(context.Background(), spec, false, naspipe.SuperviseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spec.Predictor = true // no cache_factor: it defaults to 3
	if cfg, err := spec.Config(); err != nil || cfg.ConcurrentMem.CacheFactor != 3 || !cfg.ConcurrentMem.Predictor {
		t.Fatalf("predictor-only spec lowered to %+v (%v), want factor 3 with the predictor", cfg.ConcurrentMem, err)
	}
	res, _, err := naspipe.RunJob(context.Background(), spec, false, naspipe.SuperviseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.CacheHitRate != -1 || plainRes.CacheStats != nil {
		t.Fatal("cache-less concurrent run reported cache traffic")
	}
	if res.CacheHitRate <= 0 || res.CacheHitRate > 1 {
		t.Fatalf("hit rate %v with predictor+default cache", res.CacheHitRate)
	}
	if len(res.CacheStats) != res.D || res.CachedParamBytes <= 0 {
		t.Fatalf("missing per-stage cache stats: %d rows, budget %d",
			len(res.CacheStats), res.CachedParamBytes)
	}
	if !res.Trace.Equal(plainRes.Trace) {
		t.Fatal("memory plane changed the canonical trace")
	}
}

// TestRunnerWithTelemetry attaches one bus to each executor in turn
// through Config.Telemetry: both planes must publish the full task
// lifecycle to it (the simulated plane in simulated nanoseconds, the
// concurrent plane in wall-clock offsets), and the bus must rebuild
// every task's span.
func TestRunnerWithTelemetry(t *testing.T) {
	cfg := runnerCfg(4, 16)
	for _, exec := range []naspipe.ExecutorKind{naspipe.ExecutorSimulated, naspipe.ExecutorConcurrent} {
		bus := telemetry.NewBus(0)
		cfg.Telemetry = bus
		r, err := naspipe.NewRunner(naspipe.WithExecutor(exec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := bus.Snapshot()
		want := int64(2 * 16 * res.D)
		if snap.Started != want || snap.Completed != want {
			t.Fatalf("executor %v: bus counted %d/%d task starts/completions, want %d",
				exec, snap.Started, snap.Completed, want)
		}
		if snap.Dropped != 0 {
			t.Fatalf("executor %v: bus dropped %d events at default capacity", exec, snap.Dropped)
		}
		if spans := engine.SpansFromEvents(bus.Events()); len(spans) != int(want) {
			t.Fatalf("executor %v: bus rebuilt %d spans, want %d", exec, len(spans), want)
		}
	}
}

// TestRunnerMemoryPlaneOptionValidation: a JobSpec's memory-plane
// options belong to the concurrent plane, and nonsensical combinations
// are rejected before anything runs.
func TestRunnerMemoryPlaneOptionValidation(t *testing.T) {
	spec := func(executor string, cache *float64, predictor bool) naspipe.JobSpec {
		return naspipe.JobSpec{Space: "NLP.c1", Executor: executor, GPUs: 4, Subnets: 8,
			CacheFactor: cache, Predictor: predictor}
	}
	factor := func(f float64) *float64 { return &f }
	if err := spec("simulated", factor(3), false).Validate(); err == nil {
		t.Fatal("a cache factor accepted on the simulated executor")
	} else if !strings.Contains(err.Error(), "concurrent") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if err := spec("simulated", nil, true).Validate(); err == nil {
		t.Fatal("the predictor accepted on the simulated executor")
	}
	if err := spec("concurrent", factor(-2), false).Validate(); err == nil {
		t.Fatal("negative cache factor accepted")
	}
	if err := spec("concurrent", factor(0), true).Validate(); err == nil {
		t.Fatal("predictor with an explicitly disabled cache accepted")
	}
	if err := spec("concurrent", factor(0), false).Validate(); err != nil {
		t.Fatalf("cache factor 0 alone should be a valid no-op: %v", err)
	}
	if err := spec("concurrent", nil, true).Validate(); err != nil {
		t.Fatalf("the predictor alone should default its cache: %v", err)
	}
}
