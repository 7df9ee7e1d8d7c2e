// Package naspipe is a from-scratch Go reproduction of NASPipe, the
// high-performance and reproducible pipeline-parallel supernet training
// system of Zhao et al. (ASPLOS 2022), built on causal synchronous
// parallel (CSP) pipeline scheduling.
//
// Because Go has no GPU training stack, the system runs on two substitute
// substrates (see DESIGN.md): a deterministic discrete-event simulator of
// the paper's 8-host × 4-GPU testbed for the performance plane, and a
// small deterministic float32 trainer for the numeric plane, on which the
// reproducibility claims (bitwise-equal weights across cluster sizes) are
// checked mechanically rather than asserted.
//
// This package is the public facade. A run is described once, as data: a
// JobSpec in, through RunJob, and a Result out — the way the CLIs, the
// scenario plane and the service run too. A stream a JobSpec cannot
// express (an injected or hybrid subnet stream) runs as a Config through
// Run. Around the two entry points it re-exports the Table 1 search
// spaces, the scheduling policies (NASPipe's CSP, GPipe, PipeDream,
// VPipe, ablations), the numeric trainer, evolutionary search, and the
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	res, _, err := naspipe.RunJob(ctx, naspipe.JobSpec{
//	        Space: "NLP.c1", GPUs: 8, Subnets: 100, Seed: 1,
//	}, false, naspipe.SuperviseConfig{})
//
// See examples/ for runnable programs.
package naspipe

import (
	"context"
	"io"

	"naspipe/internal/analysis"
	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/experiments"
	"naspipe/internal/explore"
	"naspipe/internal/fault"
	"naspipe/internal/hybrid"
	"naspipe/internal/moe"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
	"naspipe/internal/train"
)

// Core model types.
type (
	// Space is a NAS search space (supernet geometry + dataset).
	Space = supernet.Space
	// Subnet is one sampled architecture with its sequence ID.
	Subnet = supernet.Subnet
	// Numeric is a trainable (real float32) supernet instantiation.
	Numeric = supernet.Numeric
	// ClusterSpec describes the simulated GPU cluster.
	ClusterSpec = cluster.Spec
	// Config configures one pipeline training run on the engine.
	Config = engine.Config
	// Result reports a run's metrics (throughput, bubble ratio, ALU,
	// cache hit rate, memory, access trace, ...).
	Result = engine.Result
	// Policy is a scheduling discipline plugged into the engine.
	Policy = engine.Policy
	// Trace is the parameter READ/WRITE interleaving of a run.
	Trace = trace.Trace
	// TraceRecord is a serializable schedule: run identity + access
	// order, enough to deterministically replay a training later.
	TraceRecord = trace.Record
	// TrainConfig configures numeric (real-weights) training.
	TrainConfig = train.Config
	// TrainResult carries trained weights, losses, and the bitwise
	// checksum used for reproducibility comparison.
	TrainResult = train.Result
	// SearchConfig parameterizes evolutionary architecture search.
	SearchConfig = explore.SearchConfig
	// SearchResult reports the evolution outcome.
	SearchResult = explore.SearchResult
	// ExperimentOptions scale the paper-experiment harness.
	ExperimentOptions = experiments.Options
	// SpaceUnion combines several search spaces for hybrid traversal
	// (the paper's §5.5 future application).
	SpaceUnion = hybrid.Union
	// MoEStreamConfig parameterizes popularity-skewed (MoE/dynamic
	// network) subnet routing (the paper's other §5.5 application).
	MoEStreamConfig = moe.StreamConfig
	// StalenessReport quantifies causal-order violations in a trace.
	StalenessReport = analysis.StalenessReport
	// DepStats characterizes a subnet stream's dependency structure.
	DepStats = analysis.DepStats
	// FaultPlan is a deterministic seed-driven fault-injection schedule
	// for the concurrent plane (crashes, message drops/delays/duplicates,
	// prefetch failures); see ParseFaultPlan and JobSpec.Faults.
	FaultPlan = fault.Plan
	// Checkpoint is the crash-consistent resume state a job with
	// JobSpec.Checkpoint persists; see LoadCheckpoint.
	Checkpoint = fault.Checkpoint
)

// The paper's Table 1 search spaces.
var (
	NLPc0 = supernet.NLPc0
	NLPc1 = supernet.NLPc1
	NLPc2 = supernet.NLPc2
	NLPc3 = supernet.NLPc3
	CVc1  = supernet.CVc1
	CVc2  = supernet.CVc2
	CVc3  = supernet.CVc3
)

// SpaceByName resolves a Table 1 space by name ("NLP.c1", "CV.c3", ...).
func SpaceByName(name string) (Space, error) { return supernet.SpaceByName(name) }

// SampleSubnets returns the first n subnets of the SPOS exploration
// stream for (space, seed) — a pure function, independent of cluster
// shape.
func SampleSubnets(space Space, seed uint64, n int) []Subnet {
	return supernet.Sample(space, seed, n)
}

// DefaultCluster returns the paper's testbed (RTX 2080Ti hosts, PCIe 3.0
// x16, 40 Gbps Ethernet) with the requested GPU count.
func DefaultCluster(gpus int) ClusterSpec { return cluster.Default(gpus) }

// PolicyNames lists the available scheduling policies: "naspipe",
// "gpipe", "pipedream", "vpipe", "sequential", and the three NASPipe
// ablations ("naspipe-noscheduler", "naspipe-nopredictor",
// "naspipe-nomirroring").
func PolicyNames() []string { return sched.Names() }

// NewPolicy constructs a fresh policy instance by name. Policies are
// stateful: construct a new one per run.
func NewPolicy(name string) (Policy, error) { return sched.New(name) }

// Run executes one pipeline training run on the simulated plane under
// the given policy (see NewPolicy). It is the entry point for a Config a
// JobSpec cannot express — an injected subnet stream (Config.Subnets), a
// SpaceUnion's interleave, an MoE stream; everything else goes through
// RunJob. Invalid configurations (malformed cluster spec, gapped injected
// subnet stream) return an error; a run that fails for modeled reasons
// (e.g. parameters exceed GPU memory) returns a Result with Failed set
// and no error.
func Run(cfg Config, policy Policy) (Result, error) { return engine.Run(cfg, policy) }

// TrainSequential trains the subnets strictly in exploration order — the
// reference semantics against which reproducibility is defined.
func TrainSequential(cfg TrainConfig, subnets []Subnet) TrainResult {
	return train.Sequential(cfg, subnets)
}

// TrainReplay executes a run's recorded parameter-access trace on real
// weights. A CSP trace replays to bitwise the sequential result for any
// GPU count; BSP/ASP traces diverge.
func TrainReplay(cfg TrainConfig, subnets []Subnet, tr *Trace) (TrainResult, error) {
	return train.Replay(cfg, subnets, tr)
}

// ParseFaultPlan parses a comma-separated fault plan spec, e.g.
// "seed=7,drop=0.1,delay=0.05,crashat=2:9:F" (see fault.ParsePlan for
// the full key set) — the grammar of JobSpec.Faults.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.ParsePlan(spec) }

// LoadCheckpoint reads and integrity-checks a checkpoint file written by
// a checkpointed run.
func LoadCheckpoint(path string) (Checkpoint, error) { return fault.Load(path) }

// Evaluate returns a subnet's validation loss on a trained supernet.
func Evaluate(cfg TrainConfig, net *Numeric, sub Subnet, nBatches int) float64 {
	return train.Evaluate(cfg, net, sub, nBatches)
}

// Score converts a validation loss to the paper's reporting units
// (BLEU-like for NLP, top-5-like for CV); a documented monotone proxy.
func Score(space Space, valLoss float64) float64 {
	return train.Score(space.Domain, valLoss)
}

// DefaultSearch returns the default evolutionary-search configuration.
func DefaultSearch(seed uint64) SearchConfig { return explore.DefaultSearchConfig(seed) }

// Search runs regularized evolution over a trained supernet and returns
// the best discovered architecture.
func Search(cfg TrainConfig, net *Numeric, sc SearchConfig) (SearchResult, error) {
	return explore.Search(cfg, net, sc)
}

// NewSpaceUnion combines same-geometry search spaces into one supernet
// whose subnet streams interleave through a single pipeline — the hybrid
// traverse of multiple search spaces the paper envisions in §5.5.
func NewSpaceUnion(name string, members ...Space) (*SpaceUnion, error) {
	return hybrid.NewUnion(name, members...)
}

// AnalyzeStaleness scores a trace's parameter reads against the causal
// order: zero stale reads iff the schedule is sequential-equivalent.
func AnalyzeStaleness(tr *Trace) StalenessReport { return analysis.Staleness(tr) }

// AnalyzeDependencies characterizes a subnet stream's causal dependency
// structure (consecutive/pair share rates, longest chain).
func AnalyzeDependencies(subs []Subnet) DepStats { return analysis.Dependencies(subs) }

// MoEStream generates an MoE-style routed subnet stream: expert
// popularity follows a Zipf skew instead of SPOS's uniform sampling.
// Inject it via Config.Subnets.
func MoEStream(c MoEStreamConfig, n int) ([]Subnet, error) { return moe.Stream(c, n) }

// NewTraceRecord packages a run's identity and access trace for
// persistence (deterministic training replay, §2.1).
func NewTraceRecord(space Space, policy string, gpus int, seed uint64, numSubnets int, tr *Trace) *TraceRecord {
	return trace.NewRecord(space, policy, gpus, seed, numSubnets, tr)
}

// ReadTraceRecord loads a record written with TraceRecord.Save.
func ReadTraceRecord(r io.Reader) (*TraceRecord, error) { return trace.ReadRecord(r) }

// ExperimentNames lists the reproducible paper experiments
// ("table1".."table5", "figure1"/"figure4".."figure7",
// "artifact-compare", "artifact-throughput").
func ExperimentNames() []string { return experiments.Names() }

// DefaultExperimentOptions returns the full-scale experiment options.
func DefaultExperimentOptions() ExperimentOptions { return experiments.Default() }

// QuickExperimentOptions returns reduced options for smoke runs.
func QuickExperimentOptions() ExperimentOptions { return experiments.Quick() }

// ExperimentContext regenerates one of the paper's tables or figures and
// returns the rendered report; cancellation returns the partial report
// with ctx.Err().
func ExperimentContext(ctx context.Context, name string, o ExperimentOptions) (string, error) {
	return experiments.RunContext(ctx, name, o)
}

// AllExperimentsContext runs the full evaluation suite on a bounded
// worker pool (ExperimentOptions.Parallelism; default GOMAXPROCS). The
// report is byte-identical to a serial run at any worker count;
// cancellation returns the partial report with ctx.Err().
func AllExperimentsContext(ctx context.Context, o ExperimentOptions) (string, error) {
	return experiments.AllContext(ctx, o)
}
