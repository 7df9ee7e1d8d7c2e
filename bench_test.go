// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus ablation
// benches for the design choices DESIGN.md calls out (cache size,
// prediction, reordering, backward priority). Table/figure benches run
// the experiment harness at reduced scale per iteration; the derived
// workload metrics are attached with b.ReportMetric so `go test -bench`
// output doubles as the reproduction record.
package naspipe

import (
	"context"
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/experiments"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
)

// benchExperiment runs a named experiment once per iteration.
func benchExperiment(b *testing.B, name string) {
	o := experiments.Quick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunContext(context.Background(), name, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTable1(b *testing.B)             { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)             { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)             { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)             { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)             { benchExperiment(b, "table5") }
func BenchmarkFigure1(b *testing.B)            { benchExperiment(b, "figure1") }
func BenchmarkFigure4(b *testing.B)            { benchExperiment(b, "figure4") }
func BenchmarkFigure5(b *testing.B)            { benchExperiment(b, "figure5") }
func BenchmarkFigure6(b *testing.B)            { benchExperiment(b, "figure6") }
func BenchmarkFigure7(b *testing.B)            { benchExperiment(b, "figure7") }
func BenchmarkArtifactCompare(b *testing.B)    { benchExperiment(b, "artifact-compare") }
func BenchmarkArtifactThroughput(b *testing.B) { benchExperiment(b, "artifact-throughput") }

// benchPolicyRun measures one engine run per iteration and reports the
// simulated workload metrics.
func benchPolicyRun(b *testing.B, space supernet.Space, policy engine.Policy, mk func() engine.Policy) {
	cfg := engine.Config{
		Space: space, Spec: cluster.Default(8), Seed: 1,
		NumSubnets: 120, InflightLimit: 48,
	}
	var last engine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, _ = engine.Run(cfg, mk())
	}
	b.StopTimer()
	if last.Failed {
		b.Fatalf("run failed: %s", last.FailReason)
	}
	b.ReportMetric(last.SamplesPerSec, "sim-samples/s")
	b.ReportMetric(last.BubbleRatio, "bubble")
	b.ReportMetric(float64(last.Batch), "batch")
}

// Per-system runs on the headline space (Figure 5's NLP.c1 column).
func BenchmarkSystemNASPipe(b *testing.B) {
	benchPolicyRun(b, supernet.NLPc1, nil, func() engine.Policy { return sched.NewNASPipe() })
}

func BenchmarkSystemGPipe(b *testing.B) {
	benchPolicyRun(b, supernet.NLPc1, nil, func() engine.Policy { return sched.NewGPipe() })
}

func BenchmarkSystemPipeDream(b *testing.B) {
	benchPolicyRun(b, supernet.NLPc1, nil, func() engine.Policy { return sched.NewPipeDream() })
}

func BenchmarkSystemVPipe(b *testing.B) {
	benchPolicyRun(b, supernet.NLPc1, nil, func() engine.Policy { return sched.NewVPipe() })
}

// Ablation benches: the design choices DESIGN.md §4 calls out beyond the
// paper's own Figure 6.

// Cache size: the paper fixes the context cache at 3x a subnet's
// footprint; sweep 1.5x / 3x / 6x to expose the hit-rate/batch trade-off.
func benchCacheFactor(b *testing.B, factor float64) {
	mk := func() engine.Policy {
		o := sched.DefaultNASPipeOptions()
		o.CacheFactor = factor
		return sched.NewNASPipeWith("NASPipe", o)
	}
	cfg := engine.Config{Space: supernet.NLPc1, Spec: cluster.Default(8), Seed: 1, NumSubnets: 120, InflightLimit: 48}
	var last engine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, _ = engine.Run(cfg, mk())
	}
	b.StopTimer()
	b.ReportMetric(last.CacheHitRate, "hit-rate")
	b.ReportMetric(last.SamplesPerSec, "sim-samples/s")
}

func BenchmarkAblationCache1_5x(b *testing.B) { benchCacheFactor(b, 1.5) }
func BenchmarkAblationCache3x(b *testing.B)   { benchCacheFactor(b, 3) }
func BenchmarkAblationCache6x(b *testing.B)   { benchCacheFactor(b, 6) }

// Reordering: Algorithm 2's queue scan versus FIFO head-of-line stalls.
func BenchmarkAblationNoReorder(b *testing.B) {
	benchPolicyRun(b, supernet.NLPc1, nil, func() engine.Policy {
		o := sched.DefaultNASPipeOptions()
		o.Reorder = false
		return sched.NewNASPipeWith("NASPipe w/o scheduler", o)
	})
}

// Prediction: Algorithm 3 context prefetch versus whole-supernet
// residency.
func BenchmarkAblationNoPredictor(b *testing.B) {
	benchPolicyRun(b, supernet.NLPc1, nil, func() engine.Policy {
		o := sched.DefaultNASPipeOptions()
		o.Predictor = false
		return sched.NewNASPipeWith("NASPipe w/o predictor", o)
	})
}

// Mirroring: balanced per-subnet partitions versus the static partition.
func BenchmarkAblationNoMirroring(b *testing.B) {
	benchPolicyRun(b, supernet.NLPc1, nil, func() engine.Policy {
		o := sched.DefaultNASPipeOptions()
		o.Mirroring = false
		return sched.NewNASPipeWith("NASPipe w/o mirroring", o)
	})
}

// Window: the inflight admission window the CSP scheduler searches over.
func benchWindow(b *testing.B, window int) {
	cfg := engine.Config{Space: supernet.NLPc1, Spec: cluster.Default(8), Seed: 1, NumSubnets: 120, InflightLimit: window}
	var last engine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, _ = engine.Run(cfg, sched.NewNASPipe())
	}
	b.StopTimer()
	b.ReportMetric(last.SamplesPerSec, "sim-samples/s")
}

func BenchmarkAblationWindow16(b *testing.B) { benchWindow(b, 16) }
func BenchmarkAblationWindow48(b *testing.B) { benchWindow(b, 48) }
func BenchmarkAblationWindow96(b *testing.B) { benchWindow(b, 96) }

// Extension benches: the §5.5 future applications.

func BenchmarkExtHybridTraverse(b *testing.B) { benchExperiment(b, "ext-hybrid") }
func BenchmarkExtMoERouting(b *testing.B)     { benchExperiment(b, "ext-moe") }

// Telemetry cost on the concurrent plane: the Off/On pair guards the
// disabled path (nil bus: every emission call must stay a no-op — compare
// these two to see the cost telemetry adds when enabled; the bench cmd's
// -overhead flag gates the same delta at 5% on a jittered workload).
func benchConcurrentTelemetry(b *testing.B, mkBus func() *telemetry.Bus) {
	cfg := engine.Config{
		Space: supernet.NLPc3.Scaled(8, 3), Spec: cluster.Default(4),
		Seed: 1, NumSubnets: 18,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Telemetry = mkBus()
		if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcurrentTelemetryOff(b *testing.B) {
	benchConcurrentTelemetry(b, func() *telemetry.Bus { return nil })
}

func BenchmarkConcurrentTelemetryOn(b *testing.B) {
	benchConcurrentTelemetry(b, func() *telemetry.Bus { return telemetry.NewBus(0) })
}
