package experiments

import (
	"context"
	"fmt"

	"naspipe/internal/analysis"
	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/hybrid"
	"naspipe/internal/moe"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/train"
)

// ExtHybrid demonstrates the paper's §5.5 "hybrid traverse of multiple
// search spaces": two NLP spaces interleave through one CSP pipeline;
// cross-space subnets never share layers, so the hybrid outperforms
// either space alone while remaining reproducible.
func ExtHybrid(ctx context.Context, o Options) string {
	o = o.withDefaults()
	u, err := hybrid.NewUnion("NLP.c2+c3", supernet.NLPc2, supernet.NLPc3)
	if err != nil {
		return fmt.Sprintf("ext-hybrid: %v\n", err)
	}
	tb := NewTable("Extension: hybrid traverse of multiple search spaces (§5.5, 8 GPUs)",
		"Traverse", "Bubble", "Subnets/hour", "Samples/s")
	run := func(space supernet.Space, subs []supernet.Subnet, label string) {
		p, _ := sched.New("naspipe")
		res, err := engine.RunContext(ctx, engine.Config{
			Space: space, Spec: clusterSpec(o), Seed: o.Seed,
			NumSubnets: o.Subnets, Subnets: subs, InflightLimit: o.Inflight,
		}, p)
		if err != nil || res.Failed {
			tb.AddRow(label, "-", "-", "(failed)")
			return
		}
		tb.AddRow(label, fmt.Sprintf("%.2f", res.BubbleRatio),
			fmt.Sprintf("%.0f", res.SubnetsPerHour), fmt.Sprintf("%.0f", res.SamplesPerSec))
	}
	run(supernet.NLPc2, nil, "NLP.c2 alone")
	run(supernet.NLPc3, nil, "NLP.c3 alone")
	run(u.Space, u.Interleave(o.Seed, o.Subnets), "hybrid c2+c3")
	tb.AddNote("interleaved streams from disjoint candidate bands dilute causal dependencies")
	return tb.Render()
}

// ExtMoE demonstrates the paper's §5.5 dynamic-network / MoE direction:
// popularity-skewed routing densifies dependencies; the CSP pipeline
// degrades gracefully and stays deterministic.
func ExtMoE(ctx context.Context, o Options) string {
	o = o.withDefaults()
	tb := NewTable("Extension: MoE-style skewed routing (§5.5, NLP.c1, 8 GPUs)",
		"Routing skew", "Dep. rate", "Bubble", "Subnets/hour")
	for _, skew := range []float64{0, 0.5, 1.0, 2.0} {
		subs, err := moe.Stream(moe.StreamConfig{Space: supernet.NLPc1, Seed: o.Seed, Skew: skew}, o.Subnets)
		if err != nil {
			return fmt.Sprintf("ext-moe: %v\n", err)
		}
		p, _ := sched.New("naspipe")
		res, err := engine.RunContext(ctx, engine.Config{
			Space: supernet.NLPc1, Spec: clusterSpec(o), Seed: o.Seed,
			Subnets: subs, InflightLimit: o.Inflight,
		}, p)
		if err != nil || res.Failed {
			tb.AddRow(fmt.Sprintf("%.1f", skew), "-", "-", "(failed)")
			continue
		}
		tb.AddRow(fmt.Sprintf("%.1f", skew),
			fmt.Sprintf("%.2f", moe.DependencyRate(subs)),
			fmt.Sprintf("%.2f", res.BubbleRatio),
			fmt.Sprintf("%.0f", res.SubnetsPerHour))
	}
	tb.AddNote("skew 0 = SPOS uniform sampling; hotter experts serialize more steps")
	return tb.Render()
}

// ExtAnalysis quantifies causal-order violations (the mechanism behind
// Table 3's accuracy differences): per schedule and cluster size, the
// fraction of parameter reads that missed at least one earlier subnet's
// update. CSP is 0 by construction; BSP/ASP staleness grows with the
// cluster size, which is exactly why their results are irreproducible.
func ExtAnalysis(ctx context.Context, o Options) string {
	o = o.withDefaults()
	sp := supernet.NLPc3 // dependency-dense
	tb := NewTable("Extension: stale-read analysis of the three disciplines (NLP.c3)",
		"System", "GPUs", "Reads", "Stale reads", "Missed updates", "Worst read")
	for _, policy := range []string{"naspipe", "gpipe", "pipedream"} {
		for _, d := range []int{4, 8} {
			oo := o
			oo.Subnets = 48
			res := runPerf(ctx, oo, sp, policy, d, true)
			if res.Failed {
				tb.AddRow(policyLabel(policy), d, "-", "-", "-", "(failed)")
				continue
			}
			rep := analysis.Staleness(res.Trace)
			tb.AddRow(policyLabel(policy), d, rep.Reads,
				fmt.Sprintf("%d (%.1f%%)", rep.StaleReads, 100*rep.StaleFraction()),
				rep.MissedWrites, rep.MaxMissed)
		}
	}
	deps := analysis.Dependencies(supernet.Sample(sp, o.Seed, 48))
	tb.AddNote("stream dependency structure: %v", deps)
	return tb.Render()
}

// ExtHardware contrasts the paper's 11 GB RTX 2080Ti testbed with a
// modern 80 GB A100 cluster on NLP.c1: with abundant GPU memory the
// baselines' batch handicap vanishes and NASPipe's advantage reduces to
// scheduling + reproducibility — locating the regime where context
// switching is the decisive mechanism.
func ExtHardware(ctx context.Context, o Options) string {
	o = o.withDefaults()
	tb := NewTable("Extension: hardware sensitivity on NLP.c1 (8 GPUs)",
		"Testbed", "System", "Batch", "Samples/s", "Bubble", "Cache Hit")
	for _, hw := range []struct {
		name string
		spec cluster.Spec
	}{
		{"RTX 2080Ti (11G)", cluster.Default(o.GPUs)},
		{"A100 (80G)", cluster.A100(o.GPUs)},
	} {
		for _, policy := range []string{"naspipe", "gpipe"} {
			p, _ := sched.New(policy)
			res, err := engine.RunContext(ctx, engine.Config{
				Space: supernet.NLPc1, Spec: hw.spec, Seed: o.Seed,
				NumSubnets: o.Subnets, InflightLimit: o.Inflight,
			}, p)
			if err != nil || res.Failed {
				tb.AddRow(hw.name, policyLabel(policy), "-", "-", "-", "(failed)")
				continue
			}
			tb.AddRow(hw.name, policyLabel(policy), res.Batch,
				fmt.Sprintf("%.0f", res.SamplesPerSec),
				fmt.Sprintf("%.2f", res.BubbleRatio),
				Percent(res.CacheHitRate))
		}
	}
	tb.AddNote("reproducibility is hardware-independent; the batch advantage is memory-pressure-dependent")
	return tb.Render()
}

// ExtJitter is the sharpest form of Definition 1: simulate "a different
// cluster" by perturbing every task's duration ±30% and check whether the
// training *result* survives. Under CSP the per-layer access order is
// timing-invariant, so the replayed weights are bitwise identical for
// every jitter seed; under ASP (PipeDream) the interleaving is a
// function of timing, so the weights drift. (BSP is timing-robust but
// cluster-size-dependent — its failure mode is Table 3's, not this one.)
func ExtJitter(ctx context.Context, o Options) string {
	o = o.withDefaults()
	sp := supernet.NLPc3.Scaled(o.NumericBlocks, 3)
	subs := supernet.Sample(sp, o.Seed, o.NumericSubnets)
	cfg := o.numericCfg(supernet.NLPc3)
	cfg.Space = sp
	tb := NewTable("Extension: timing-perturbation reproducibility (±30% task jitter)",
		"System", "Jitter seed", "Total (sim ms)", "Weights checksum", "Bitwise equal")
	for _, policy := range []string{"naspipe", "pipedream"} {
		var first uint64
		for i, js := range []uint64{0, 11, 23} {
			p, _ := sched.New(policy)
			ecfg := engine.Config{
				Space: sp, Spec: cluster.Default(o.GPUs), Seed: o.Seed,
				Subnets: subs, RecordTrace: true, InflightLimit: o.Inflight,
			}
			if js > 0 {
				ecfg.TimingJitter = 0.3
				ecfg.JitterSeed = js
			}
			res, err := engine.RunContext(ctx, ecfg, p)
			if err != nil {
				tb.AddRow(policyLabel(policy), js, "-", "-", fmt.Sprintf("error: %v", err))
				continue
			}
			num, err := train.Replay(cfg, subs, res.Trace)
			if err != nil {
				tb.AddRow(policyLabel(policy), js, "-", "-", fmt.Sprintf("error: %v", err))
				continue
			}
			equal := "—"
			if i == 0 {
				first = num.Checksum
			} else if num.Checksum == first {
				equal = "yes"
			} else {
				equal = "NO"
			}
			tb.AddRow(policyLabel(policy), js, fmt.Sprintf("%.0f", res.TotalMs),
				fmt.Sprintf("%016x", num.Checksum), equal)
		}
	}
	tb.AddNote("jitter models foreign hardware: per-task durations scaled by deterministic factors in [0.7, 1.3]")
	return tb.Render()
}
