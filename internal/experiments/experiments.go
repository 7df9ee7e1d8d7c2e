// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the artifact appendix experiments, on the
// simulated cluster (performance plane) and the numeric trainer
// (reproducibility plane). Each function returns a rendered text report;
// EXPERIMENTS.md records paper-vs-measured values and deviations.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"naspipe/internal/cluster"
	"naspipe/internal/data"
	"naspipe/internal/engine"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/train"
)

// Options scale the experiments. Defaults reproduce the paper's setups at
// simulation scale; Quick shrinks everything for smoke tests and benches.
type Options struct {
	Seed     uint64
	GPUs     int // default 8, the paper's default setting
	Subnets  int // performance-plane subnets per run
	Inflight int // pipeline admission window

	// Numeric plane scaling: the trainable supernet is geometry-reduced
	// (blocks fixed, choices divided) so real float32 training is fast
	// while the dependency structure keeps its character.
	NumericBlocks  int
	NumericDim     int
	NumericBatch   int
	NumericSubnets int
	NumericLR      float32

	// Parallelism bounds the worker pool used by All/AllContext when
	// fanning out independent experiments. Zero means GOMAXPROCS; one
	// recovers the serial harness. The rendered report is byte-identical
	// at every setting — results are assembled in experiment order, not
	// completion order.
	Parallelism int

	Quick bool
}

// Default returns the full-scale experiment options.
func Default() Options {
	return Options{
		Seed: 42, GPUs: 8, Subnets: 240, Inflight: 48,
		NumericBlocks: 12, NumericDim: 12, NumericBatch: 4,
		NumericSubnets: 120, NumericLR: 0.05,
	}
}

// Quick returns reduced options for fast smoke runs.
func Quick() Options {
	o := Default()
	o.Subnets = 60
	o.NumericSubnets = 30
	o.NumericBlocks = 8
	o.Quick = true
	return o
}

func (o Options) withDefaults() Options {
	d := Default()
	if o.GPUs == 0 {
		o.GPUs = d.GPUs
	}
	if o.Subnets == 0 {
		o.Subnets = d.Subnets
	}
	if o.Inflight == 0 {
		o.Inflight = d.Inflight
	}
	if o.NumericBlocks == 0 {
		o.NumericBlocks = d.NumericBlocks
	}
	if o.NumericDim == 0 {
		o.NumericDim = d.NumericDim
	}
	if o.NumericBatch == 0 {
		o.NumericBatch = d.NumericBatch
	}
	if o.NumericSubnets == 0 {
		o.NumericSubnets = d.NumericSubnets
	}
	if o.NumericLR == 0 {
		o.NumericLR = d.NumericLR
	}
	return o
}

// perfSystems are the four systems of Figures 4–5 and Table 2.
var perfSystems = []string{"naspipe", "gpipe", "pipedream", "vpipe"}

// syncName maps policies to the paper's synchronization labels.
func syncName(policy string) string {
	switch policy {
	case "naspipe", "sequential":
		return "CSP"
	case "gpipe", "vpipe":
		return "BSP"
	case "pipedream":
		return "ASP"
	}
	return "?"
}

// runPerf executes one performance-plane run. Engine errors (including
// cancellation) surface as a Failed result so table/figure renderers can
// report them as data points without every call site growing an error
// branch; genuine errors also reach the caller via ctx or the facade.
func runPerf(ctx context.Context, o Options, space supernet.Space, policy string, gpus int, recordTrace bool) engine.Result {
	p, err := sched.New(policy)
	if err != nil {
		return engine.Result{Policy: policy, Space: space.Name, Failed: true, FailReason: err.Error()}
	}
	res, err := engine.RunContext(ctx, engine.Config{
		Space:         space,
		Spec:          cluster.Default(gpus),
		Seed:          o.Seed,
		NumSubnets:    o.Subnets,
		InflightLimit: o.Inflight,
		RecordTrace:   recordTrace,
	}, p)
	if err != nil && !res.Failed {
		res.Failed = true
		res.FailReason = err.Error()
	}
	return res
}

// clusterSpec builds the default cluster at the options' GPU count.
func clusterSpec(o Options) cluster.Spec { return cluster.Default(o.GPUs) }

// scaledSpace reduces a Table-1 space to numeric-plane geometry: fixed
// block count, choices divided by 8 (floor 2), preserving the relative
// dependency density across spaces.
func (o Options) scaledSpace(space supernet.Space) supernet.Space {
	choices := space.Choices / 8
	if choices < 2 {
		choices = 2
	}
	return space.Scaled(o.NumericBlocks, choices)
}

// numericCfg builds the numeric training config for a space.
func (o Options) numericCfg(space supernet.Space) train.Config {
	kind, err := data.KindByName(space.Dataset)
	if err != nil {
		kind = data.WNMT
	}
	return train.Config{
		Space: o.scaledSpace(space), Dim: o.NumericDim, Seed: o.Seed,
		BatchSize: o.NumericBatch, LR: o.NumericLR, Dataset: kind,
	}
}

// numericRun trains the scaled space under the given policy's schedule at
// the given GPU count and returns the numeric result.
func (o Options) numericRun(ctx context.Context, space supernet.Space, policy string, gpus int) (train.Result, error) {
	cfg := o.numericCfg(space)
	p, err := sched.New(policy)
	if err != nil {
		return train.Result{}, err
	}
	res, err := engine.RunContext(ctx, engine.Config{
		Space:         cfg.Space,
		Spec:          cluster.Default(gpus),
		Seed:          o.Seed,
		NumSubnets:    o.NumericSubnets,
		InflightLimit: o.Inflight,
		RecordTrace:   true,
	}, p)
	if err != nil {
		return train.Result{}, err
	}
	if res.Failed {
		return train.Result{}, fmt.Errorf("%s failed on %s: %s", policy, cfg.Space.Name, res.FailReason)
	}
	if res.Deadlock {
		return train.Result{}, fmt.Errorf("%s deadlocked on %s", policy, cfg.Space.Name)
	}
	subs := supernet.Sample(cfg.Space, o.Seed, o.NumericSubnets)
	return train.Replay(cfg, subs, res.Trace)
}

// probeValLoss evaluates the trained supernet on a fixed probe set of
// subnets (sampled outside the training stream) — a smooth, deterministic
// measure of supernet quality used as "supernet loss" in Table 3 and the
// final-loss column of Figure 4.
func (o Options) probeValLoss(cfg train.Config, net *supernet.Numeric) float64 {
	probes := supernet.Sample(cfg.Space, o.Seed+997, 6)
	var sum float64
	for _, p := range probes {
		sum += train.Evaluate(cfg, net, p, 2)
	}
	return sum / float64(len(probes))
}

// Names lists the experiment identifiers accepted by Run.
func Names() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5",
		"figure1", "figure4", "figure5", "figure6", "figure7",
		"artifact-compare", "artifact-throughput",
		"ext-hybrid", "ext-moe", "ext-analysis", "ext-hardware", "ext-jitter",
	}
}

// Run dispatches an experiment by name.
func Run(name string, o Options) (string, error) {
	return RunContext(context.Background(), name, o)
}

// RunContext dispatches an experiment by name under a context. A
// cancelled context returns whatever partial report the experiment
// rendered (possibly empty) along with the context's error.
func RunContext(ctx context.Context, name string, o Options) (string, error) {
	var out string
	switch name {
	case "table1":
		out = Table1(ctx, o)
	case "table2":
		out = Table2(ctx, o)
	case "table3":
		out = Table3(ctx, o)
	case "table4":
		out = Table4(ctx, o)
	case "table5":
		out = Table5(ctx, o)
	case "figure1":
		out = Figure1(ctx, o)
	case "figure4":
		out = Figure4(ctx, o)
	case "figure5":
		out = Figure5(ctx, o)
	case "figure6":
		out = Figure6(ctx, o)
	case "figure7":
		out = Figure7(ctx, o)
	case "figure-cc":
		// Concurrent-plane timeline: by-name only. Not in Names(), so
		// AllExperiments stays byte-identical across worker counts while
		// this wall-clock report remains reachable from the CLI.
		out = FigureCC(ctx, o)
	case "artifact-compare":
		out = ArtifactCompare(ctx, o)
	case "artifact-throughput":
		out = ArtifactThroughput(ctx, o)
	case "ext-hybrid":
		out = ExtHybrid(ctx, o)
	case "ext-moe":
		out = ExtMoE(ctx, o)
	case "ext-analysis":
		out = ExtAnalysis(ctx, o)
	case "ext-hardware":
		out = ExtHardware(ctx, o)
	case "ext-jitter":
		out = ExtJitter(ctx, o)
	default:
		return "", fmt.Errorf("experiments: unknown experiment %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// AllContext runs every experiment on a bounded worker pool (see
// Options.Parallelism) and concatenates the reports in canonical Names()
// order. The output is byte-identical to the serial harness regardless of
// worker count or completion order: each experiment renders into its own
// slot and the slots are joined in order at the end. Per-experiment
// failures are embedded in the report exactly as the serial loop embeds
// them; only cancellation is returned as an error, alongside the partial
// report assembled so far.
func AllContext(ctx context.Context, o Options) (string, error) {
	names := Names()
	parts, err := parallelMap(ctx, o.Parallelism, len(names), func(i int) (string, error) {
		out, err := RunContext(ctx, names[i], o)
		if err != nil {
			if ctx.Err() != nil {
				return out, err
			}
			return fmt.Sprintf("%s: ERROR: %v\n", names[i], err), nil
		}
		return out + "\n", nil
	})
	return strings.Join(parts, ""), err
}
