package experiments

import (
	"context"
	"fmt"

	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/train"
)

// Figure1 demonstrates the conceptual comparison of ASP, BSP, and CSP on
// a short ordered subnet list with dense causal dependencies: CSP is the
// only discipline that retains every dependency, at a bubble rate between
// ASP's (none enforced) and a fully serialized execution.
func Figure1(ctx context.Context, o Options) string {
	o = o.withDefaults()
	sp := supernet.NLPc3.Scaled(6, 2) // dense dependencies, like the figure
	oo := o
	oo.Subnets = 5
	tb := NewTable("Figure 1: ASP vs BSP vs CSP on 5 subnets, 3 stages",
		"Discipline", "System", "Bubble", "Dependencies preserved", "First violation")
	timelines := ""
	for _, policy := range []string{"pipedream", "gpipe", "naspipe"} {
		res := runPerf(ctx, oo, sp, policy, 3, true)
		violation := "-"
		preserved := "yes"
		if v := res.Trace.FirstViolation(); v != nil {
			preserved = "NO"
			violation = fmt.Sprintf("layer %d: %s", v.Layer, v.Detail)
		}
		tb.AddRow(syncName(policy), policyLabel(policy),
			fmt.Sprintf("%.2f", res.BubbleRatio), preserved, violation)
		timelines += fmt.Sprintf("\n%s (%s) pipeline:\n%s", policyLabel(policy), syncName(policy),
			engine.RenderTimeline(res.Spans, 3, 72, res.TotalMs))
	}
	return tb.Render() + timelines
}

// figure4Spaces are the six convergence plots of Figure 4.
var figure4Spaces = []supernet.Space{
	supernet.NLPc1, supernet.NLPc2, supernet.NLPc3,
	supernet.CVc1, supernet.CVc2, supernet.CVc3,
}

// Figure4 reproduces the end-to-end convergence comparison: per space,
// the training-loss trajectory and final validation score of CSP
// (NASPipe) versus BSP (GPipe) and ASP (PipeDream) schedules, all
// executed on the numeric plane.
func Figure4(ctx context.Context, o Options) string {
	o = o.withDefaults()
	spaces := figure4Spaces
	if o.Quick {
		spaces = spaces[:2]
	}
	tb := NewTable("Figure 4: end-to-end training convergence (numeric plane)",
		"Space", "Sync.", "Loss@25%", "Loss@50%", "Loss@75%", "Final Val Loss", "Score")
	for _, sp := range spaces {
		for _, policy := range []string{"naspipe", "gpipe", "pipedream"} {
			num, err := o.numericRun(ctx, sp, policy, o.GPUs)
			if err != nil {
				tb.AddRow(sp.Name, syncName(policy), "-", "-", "-", "-", "-")
				continue
			}
			n := len(num.Losses)
			at := func(frac float64) string {
				i := int(frac * float64(n))
				if i >= n {
					i = n - 1
				}
				return fmt.Sprintf("%.4f", num.Losses[i])
			}
			cfg := o.numericCfg(sp)
			valLoss := o.probeValLoss(cfg, num.Net)
			tb.AddRow(sp.Name, syncName(policy), at(0.25), at(0.5), at(0.75),
				fmt.Sprintf("%.4f", valLoss), fmt.Sprintf("%.2f", train.Score(sp.Domain, valLoss)))
		}
	}
	tb.AddNote("scores are BLEU-like (NLP) / top-5-like (CV) monotone proxies of validation loss")
	return tb.Render()
}

// Figure5 reproduces the normalized-throughput comparison across all
// seven spaces, with NASPipe's subnets/hour annotated (the red-bar
// values).
func Figure5(ctx context.Context, o Options) string {
	o = o.withDefaults()
	tb := NewTable("Figure 5: throughput of four systems on seven search spaces (8 GPUs)",
		"Space", "System", "Samples/s", "vs GPipe", "Subnets/hour", "Bubble")
	for _, sp := range supernet.Spaces() {
		gpipe := runPerf(ctx, o, sp, "gpipe", o.GPUs, false)
		for _, policy := range perfSystems {
			res := runPerf(ctx, o, sp, policy, o.GPUs, false)
			if res.Failed {
				tb.AddRow(sp.Name, policyLabel(policy), "-", "-", "-", "(exceeds GPU memory)")
				continue
			}
			rel := "-"
			if !gpipe.Failed && gpipe.SamplesPerSec > 0 {
				rel = Factor(res.SamplesPerSec / gpipe.SamplesPerSec)
			}
			tb.AddRow(sp.Name, policyLabel(policy),
				fmt.Sprintf("%.0f", res.SamplesPerSec), rel,
				fmt.Sprintf("%.0f", res.SubnetsPerHour),
				fmt.Sprintf("%.2f", res.BubbleRatio))
		}
	}
	tb.AddNote("NASPipe is the only reproducible system in this table; baselines do not enforce causal dependencies")
	return tb.Render()
}

// Figure6 reproduces the component ablation: full NASPipe against the
// w/o-scheduler, w/o-predictor, and w/o-mirroring variants.
func Figure6(ctx context.Context, o Options) string {
	o = o.withDefaults()
	systems := []string{"naspipe", "naspipe-noscheduler", "naspipe-nopredictor", "naspipe-nomirroring"}
	tb := NewTable("Figure 6: ablation of NASPipe's components (8 GPUs)",
		"Space", "System", "Samples/s", "Batch", "Bubble", "Subnets/hour")
	for _, sp := range supernet.Spaces() {
		for _, policy := range systems {
			res := runPerf(ctx, o, sp, policy, o.GPUs, false)
			if res.Failed {
				tb.AddRow(sp.Name, res.Policy, "-", "-", "-", "(exceeds GPU memory)")
				continue
			}
			tb.AddRow(sp.Name, res.Policy,
				fmt.Sprintf("%.0f", res.SamplesPerSec), res.Batch,
				fmt.Sprintf("%.2f", res.BubbleRatio),
				fmt.Sprintf("%.0f", res.SubnetsPerHour))
		}
	}
	tb.AddNote("w/o predictor keeps the whole supernet in GPU memory (smaller batch); w/o scheduler stalls on the queue head; w/o mirroring uses the static partition")
	return tb.Render()
}

// Figure7 reproduces the scalability study: total ALU utilization of the
// four systems from 4 to 16 GPUs on NLP.c1.
func Figure7(ctx context.Context, o Options) string {
	o = o.withDefaults()
	gpuCounts := []int{4, 8, 12, 16}
	if o.Quick {
		gpuCounts = []int{4, 8}
	}
	var out string
	for _, policy := range perfSystems {
		var s Series
		s.Name = fmt.Sprintf("Figure 7: total GPU ALU on NLP.c1 — %s", policyLabel(policy))
		for _, d := range gpuCounts {
			oo := o
			oo.Inflight = 6 * d
			res := runPerf(ctx, oo, supernet.NLPc1, policy, d, false)
			if res.Failed {
				s.Add(fmt.Sprintf("%d GPUs", d), 0)
				continue
			}
			s.Add(fmt.Sprintf("%d GPUs", d), res.ALUTotal)
		}
		out += s.Render()
	}
	out += "note: NASPipe scales sub-linearly; causal dependencies raise the bubble ratio as D grows (§5.4)\n"
	return out
}

// FigureCC renders a pipeline timeline of the *concurrent* execution
// plane — real goroutines, wall-clock time — from the spans of its own
// telemetry bus, alongside its contention and cache tables. Wall-clock
// timings vary run to run, so this figure is dispatchable by name
// ("figure-cc") but deliberately excluded from Names(): AllExperiments'
// output must stay byte-identical across worker counts, and this report
// cannot be.
func FigureCC(ctx context.Context, o Options) string {
	o = o.withDefaults()
	sp := supernet.NLPc3.Scaled(6, 2)
	bus := telemetry.NewBus(0)
	res, err := engine.RunConcurrent(ctx, engine.Config{
		Space:         sp,
		Spec:          cluster.Default(3),
		Seed:          o.Seed,
		NumSubnets:    8,
		InflightLimit: o.Inflight,
		RecordTrace:   true,
		ConcurrentMem: engine.MemPlaneConfig{CacheFactor: 3, Predictor: true},
		Telemetry:     bus,
	})
	if err != nil {
		return fmt.Sprintf("figure-cc: ERROR: %v\n", err)
	}
	// The bus epoch precedes the run's setup: the axis starts at the
	// first task (spans come sorted by start) and ends at the last.
	spans := engine.SpansFromEvents(bus.Events())
	if len(spans) > 0 {
		t0 := spans[0].StartMs
		for i := range spans {
			spans[i].StartMs -= t0
			spans[i].EndMs -= t0
		}
	}
	out := fmt.Sprintf("Figure CC: concurrent CSP executor, %d subnets, %d stages (wall clock — not byte-stable)\n%s",
		res.Completed, res.D, engine.RenderTimeline(spans, res.D, 72, 0))
	out += ContentionTable(res.Contention)
	out += CacheTable(res.CacheStats)
	return out
}
