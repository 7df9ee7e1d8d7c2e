package experiments

import (
	"context"
	"fmt"

	"naspipe/internal/supernet"
	"naspipe/internal/train"
)

// ArtifactCompare reproduces the artifact's Experiment 1: reproducible
// parallel training on single-GPU and four-GPU settings on search space
// NLP.c0, comparing all training-step outputs in full floating-point
// precision. Expected: every step's loss matches bitwise, and the final
// supernet weights are bitwise identical.
func ArtifactCompare(ctx context.Context, o Options) string {
	o = o.withDefaults()
	steps := 500
	if o.Quick {
		steps = 50
	}
	oo := o
	oo.NumericSubnets = steps
	sp := supernet.NLPc0

	single, err := oo.numericRun(ctx, sp, "naspipe", 1)
	if err != nil {
		return fmt.Sprintf("Artifact Experiment 1: ERROR: %v\n", err)
	}
	quad, err := oo.numericRun(ctx, sp, "naspipe", 4)
	if err != nil {
		return fmt.Sprintf("Artifact Experiment 1: ERROR: %v\n", err)
	}

	matches := 0
	for i := range single.Losses {
		if i < len(quad.Losses) && single.Losses[i] == quad.Losses[i] {
			matches++
		}
	}
	tb := NewTable("Artifact Experiment 1: reproducible training, 1 GPU vs 4 GPUs (NLP.c0 scaled)",
		"Check", "Result")
	tb.AddRow("training steps compared", steps)
	tb.AddRow("step outputs matching (full fp32 precision)", fmt.Sprintf("%d/%d", matches, steps))
	tb.AddRow("final weights bitwise equal", fmt.Sprintf("%v (checksums %016x / %016x)",
		single.Checksum == quad.Checksum, single.Checksum, quad.Checksum))
	tb.AddRow("bitwise loss series equal", fmt.Sprintf("%v", train.LossesBitwiseEqual(single.Losses, quad.Losses)))
	return tb.Render()
}

// ArtifactThroughput reproduces the artifact's Experiment 2: NASPipe
// training throughput on NLP.c0–c3 with four GPUs, expecting
// T(c0) > T(c1) > T(c2) > T(c3): larger spaces manifest fewer causal
// dependencies and pipeline better.
func ArtifactThroughput(ctx context.Context, o Options) string {
	o = o.withDefaults()
	spaces := []supernet.Space{supernet.NLPc0, supernet.NLPc1, supernet.NLPc2, supernet.NLPc3}
	tb := NewTable("Artifact Experiment 2: NASPipe throughput ordering on 4 GPUs",
		"Space", "Samples/s", "Subnets/hour", "Bubble")
	prev := -1.0
	ordered := true
	for _, sp := range spaces {
		res := runPerf(ctx, o, sp, "naspipe", 4, false)
		if res.Failed {
			tb.AddRow(sp.Name, "-", "-", "(failed)")
			ordered = false
			continue
		}
		if prev > 0 && res.SamplesPerSec >= prev {
			ordered = false
		}
		prev = res.SamplesPerSec
		tb.AddRow(sp.Name, fmt.Sprintf("%.0f", res.SamplesPerSec),
			fmt.Sprintf("%.0f", res.SubnetsPerHour), fmt.Sprintf("%.2f", res.BubbleRatio))
	}
	verdict := "T(c0) > T(c1) > T(c2) > T(c3): HOLDS"
	if !ordered {
		verdict = "ordering check: FAILED"
	}
	tb.AddNote(verdict)
	return tb.Render()
}
