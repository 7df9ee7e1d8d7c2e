// The simulator: the stage machines' driver on a discrete-event clock.
// Only it needs batch sizing against GPU memory, the memctx model of each
// stage's cache with PCIe swap timing, modelled message delays, and
// layer-granular preemption: an acquired task becomes per-layer
// micro-steps, so a backward admitted while a forward runs takes the
// compute unit at the next layer boundary (dispatch, microDone).
package engine

import (
	"context"
	"fmt"
	"math"

	"naspipe/internal/cluster"
	"naspipe/internal/csp"
	"naspipe/internal/fault"
	"naspipe/internal/memctx"
	"naspipe/internal/partition"
	"naspipe/internal/rng"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/trace"
)

// Config describes one simulated training run.
type Config struct {
	Space      supernet.Space
	Spec       cluster.Spec
	Seed       uint64
	NumSubnets int

	// Subnets optionally injects an explicit ordered subnet stream
	// (e.g. a hybrid multi-space interleave) instead of SPOS-sampling
	// NumSubnets from the space. Sequence IDs must be 0..len-1.
	Subnets []supernet.Subnet

	// InflightLimit bounds the subnets admitted into the pipeline at
	// once (the paper keeps |L_q| under ~30). 0 means max(3·D, 12).
	InflightLimit int

	// RecordTrace enables parameter-access trace emission (needed by the
	// numeric replay plane; adds memory proportional to accesses). It
	// emits no telemetry; on the simulated plane it also fills
	// Result.Spans.
	RecordTrace bool

	// BatchOverride forces the pipeline batch size instead of deriving it
	// from the memory model. 0 derives it.
	BatchOverride int

	// TimingJitter perturbs every task's compute duration by a
	// deterministic per-task factor in [1−j, 1+j], keyed by JitterSeed —
	// a model of running on a *different cluster* with different (but
	// still roughly deterministic) kernel timings. Definition 1 requires
	// the training result to survive this; the CSP schedule's per-layer
	// access order (and therefore the numeric result) is invariant under
	// any jitter, while its wall-clock timeline is not.
	TimingJitter float64
	JitterSeed   uint64

	// StageSpeeds models a heterogeneous cluster: every task on stage k
	// takes StageSpeeds[k]× its baseline compute time (1.0 = the paper's
	// testbed GPU; 2.0 = a straggler at half speed). Entries beyond the
	// pipeline depth are ignored and missing entries mean 1.0, so an
	// elastic resume at reduced depth keeps the surviving stages' speeds.
	// Like TimingJitter this perturbs timing only: the CSP schedule — and
	// with it the training result — is invariant under any speed
	// assignment, which the scenario conformance suite pins.
	StageSpeeds []float64

	// SimCacheFactor overrides the policy's declared cache provisioning
	// factor on the simulated plane (0 keeps the policy's traits). The
	// scenario compiler uses it so one declarative cache budget drives
	// both planes; the concurrent plane takes ConcurrentMem.CacheFactor.
	SimCacheFactor float64

	// ConcurrentMem configures the concurrent execution plane's per-stage
	// memory context (the prefetching layer cache and the Algorithm 3
	// predictor). The simulated plane ignores it — there the memory model
	// is declared by the policy's Traits. The zero value disables the
	// cache: every concurrent task runs with no memory context.
	ConcurrentMem MemPlaneConfig

	// Telemetry, when non-nil, receives the run's structured event
	// stream: task admission/start/preempt/resume/complete spans,
	// scheduler decisions, prefetch-cache traffic, and cross-stage
	// transfer flows, on both execution planes. Nil (the default)
	// disables telemetry entirely — the hot paths emit nothing and
	// allocate nothing. The bus is the caller's: the engine never builds
	// one and never reads one back. The simulated plane stamps events
	// with simulated nanoseconds; the concurrent plane with wall-clock
	// offsets from the bus epoch, so spans derived from it
	// (SpansFromEvents, timelines) want a bus constructed just before
	// the run.
	Telemetry *telemetry.Bus

	// Faults, when non-nil and enabled, activates the deterministic
	// fault-injection plane on the concurrent executor: seed-driven stage
	// crashes at task boundaries, dropped/delayed/duplicated cross-stage
	// messages with bounded retry, and prefetch-copy failures surfaced as
	// cache misses. The simulated plane rejects it — its discrete-event
	// clock has no goroutines to crash.
	Faults *fault.Plan

	// FaultIncarnation is the restart epoch fault decisions are keyed by
	// (0 for a fresh run; resumes pass the checkpoint's). Injected
	// crashes re-roll per incarnation, so recovery terminates.
	FaultIncarnation int

	// Checkpoint, when non-nil, receives a consistency cut every time
	// stage 0's backward frontier advances: the global cursor (subnets
	// [0, cursor) fully retired) plus out-of-order finished seqs above
	// it. Concurrent plane only.
	Checkpoint fault.Recorder

	// SeqBase offsets every externally visible sequence ID (trace,
	// telemetry, fault decisions, checkpoint cuts) by a resume cursor:
	// the engine executes Subnets with local seqs 0..len-1 while the
	// outside world sees BaseSeq..BaseSeq+len-1. A resume (RunJob's, a
	// fleet worker's) runs the uncommitted suffix of an interrupted
	// stream with it. Concurrent plane only.
	SeqBase int

	// Probe, when non-nil, receives the run's live health state: per-stage
	// scheduler heads and task counters published at every task boundary,
	// plus the committed stage-0 frontier. The supervision plane's
	// watchdog polls it to distinguish slow progress from a genuine
	// stall. A probe may be reused across incarnations; RunConcurrent
	// re-attaches it at start. Concurrent plane only.
	Probe *RunProbe

	// Dist, when non-nil, runs only Dist.Stages of the pipeline in this
	// process and carries cross-stage messages on Dist.Transport instead
	// of the private in-process transport a nil Dist gets — the
	// distributed execution plane (see dist.go). Concurrent plane only.
	Dist *DistConfig
}

// MemPlaneConfig is the concurrent plane's memory-context configuration.
// Prefetching moves data only, never scheduling decisions, so any setting
// leaves the canonical causal trace (Definition 1) untouched.
type MemPlaneConfig struct {
	// CacheFactor sizes each stage's GPU parameter cache as a multiple of
	// the stage's average subnet-partition footprint — the paper's
	// configuration is 3 (executing + evicting + prefetched subnet).
	// 0 disables the cache (and the predictor).
	CacheFactor float64
	// Predictor adds Algorithm 3 forecasts and pending-backward carries
	// to each stage's prefetch requests. Requires CacheFactor > 0.
	Predictor bool
	// FetchMsScale converts modeled PCIe copy milliseconds into
	// wall-clock delay: 0 models instant copies (the default — stage
	// compute is itself only a scheduler yield), 1 plays them in real
	// time. Used by tests to force late-prefetch and stall paths.
	FetchMsScale float64
}

// Enabled reports whether the concurrent memory plane is active.
func (m MemPlaneConfig) Enabled() bool { return m.CacheFactor > 0 }

// ResolveSubnets returns the full explore stream this config denotes:
// the injected Subnets when present, otherwise the SPOS sample the
// engine would draw. Checkpoint/resume callers use it to reason about
// the whole stream (prefix checksums, suffix renumbering) outside the
// engine.
func (c Config) ResolveSubnets() []supernet.Subnet {
	c = c.withDefaults()
	if len(c.Subnets) > 0 {
		return c.Subnets
	}
	return supernet.Sample(c.Space, c.Seed, c.NumSubnets)
}

// ResumeAt lowers c onto the uncommitted suffix of its stream, full
// being ResolveSubnets() and cursor the committed prefix length
// (0 <= cursor <= len(full)). The engine runs the suffix under local
// 0-based seqs; SeqBase maps every externally visible sequence number
// (trace, telemetry, fault labels, checkpoint cuts) back to the global
// stream, and incarnation selects the fault schedule of this restart.
func (c Config) ResumeAt(full []supernet.Subnet, cursor, incarnation int) Config {
	suffix := make([]supernet.Subnet, len(full)-cursor)
	for i := range suffix {
		suffix[i] = full[cursor+i]
		suffix[i].Seq = i
	}
	c.Subnets, c.NumSubnets = suffix, len(suffix)
	c.SeqBase, c.FaultIncarnation = cursor, incarnation
	return c
}

func (c Config) withDefaults() Config {
	if len(c.Subnets) > 0 {
		c.NumSubnets = len(c.Subnets)
	}
	if c.NumSubnets <= 0 {
		c.NumSubnets = 64
	}
	if c.InflightLimit <= 0 {
		c.InflightLimit = 3 * c.Spec.GPUs
		if c.InflightLimit < 12 {
			c.InflightLimit = 12
		}
	}
	return c
}

// StageSpeed returns stage k's compute-time multiplier (1.0 when the
// cluster is homogeneous or k is beyond the declared speeds).
func (c Config) StageSpeed(k int) float64 {
	if k >= 0 && k < len(c.StageSpeeds) {
		return c.StageSpeeds[k]
	}
	return 1
}

// validateTiming rejects timing-perturbation parameters that would make
// a run unschedulable rather than merely slower: non-positive stage
// speeds and negative cache overrides. Shared by both execution planes.
func (c Config) validateTiming() error {
	for k, v := range c.StageSpeeds {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("engine: StageSpeeds[%d] = %v; speeds must be positive and finite", k, v)
		}
	}
	if c.SimCacheFactor < 0 {
		return fmt.Errorf("engine: negative SimCacheFactor %v", c.SimCacheFactor)
	}
	return nil
}

// Result carries everything the paper's tables and figures report about
// one run.
type Result struct {
	Policy string
	Space  string
	D      int

	Failed     bool // the system could not run (parameters exceed GPU memory)
	FailReason string
	Deadlock   bool // scheduling stalled before completing (engine invariant violation)

	Batch          int
	TotalMs        float64
	Completed      int
	SamplesPerSec  float64
	SubnetsPerHour float64
	BubbleRatio    float64
	ALUTotal       float64 // summed utilization across GPUs, × one GPU
	GPUMemBytes    int64   // summed peak across GPUs
	GPUMemX        float64 // same, normalized to one GPU's capacity
	CPUMemBytes    int64   // pinned CPU storage for the supernet stash
	ExecMsAvg      float64 // per-subnet execution time, bubbles eliminated
	CacheHitRate   float64 // -1 when the system does not swap or saw no accesses (N/A)
	StallMs        float64 // total compute stalls waiting on swaps
	MirrorBytes    int64   // mirrored-parameter push traffic

	// DroppedPrefetches counts prefetches abandoned because cache
	// capacity was held by locked contexts (or, on the concurrent plane,
	// because the fault plane failed the copy) — the attributable cause
	// of otherwise-unexplained misses.
	DroppedPrefetches int

	CachedParamBytes int64 // resident parameter budget across stages ("Para.")
	SupernetBytes    int64 // whole-supernet parameter size

	StageBusyMs  []float64 // per-stage compute time (diagnostics)
	StageStallMs []float64 // per-stage swap stalls (diagnostics)
	AvgInflight  float64   // time-averaged subnets in flight (diagnostics)

	// Spans records every task's admission and completion, for timeline
	// rendering (Figure 1): the simulated plane's, when
	// Config.RecordTrace is set. The concurrent plane leaves it nil; on
	// goroutines, derive spans from your bus with SpansFromEvents.
	Spans []TaskSpan

	Trace *trace.Trace // nil unless Config.RecordTrace

	// ObservedTrace is filled only by the concurrent execution plane
	// (RunConcurrent): the raw parameter-access interleaving as the stage
	// goroutines actually emitted it, wall-clock-nondeterministic across
	// runs. Trace above then holds the canonical causal order, which CSP
	// guarantees is the deterministic per-layer-equivalent of this one;
	// RunConcurrent fails loudly if the guarantee was violated.
	ObservedTrace *trace.Trace

	// Contention carries per-stage scheduling-pressure counters from the
	// concurrent execution plane; nil on the simulated plane.
	Contention []StageContention

	// CacheStats carries per-stage memory-context counters from the
	// concurrent execution plane's prefetching layer cache; nil when the
	// cache is disabled or on the simulated plane (which reports the
	// aggregate fields above instead).
	CacheStats []StageCache

	// BaseSeq echoes Config.SeqBase: the global sequence ID of the run's
	// first subnet. Trace and telemetry seqs start here; Completed counts
	// subnets of this run only.
	BaseSeq int

	// CheckpointStats is what the checkpoint plane cost (cuts offered,
	// saves that hit disk, durable lag, time in synchronous saves),
	// filled by whoever owns the file recorder — Runner, summed over a
	// supervised job's incarnations, and the fleet coordinator; zero
	// without a checkpoint file.
	CheckpointStats fault.RecorderStats

	// Checksum is the weight checksum the run was verified to share
	// bitwise with the sequential reference, filled by whoever checks a
	// JobSpec's Verify — naspipe.RunJob and the fleet coordinator; zero
	// when nothing was verified.
	Checksum uint64
}

// StageContention aggregates one pipeline stage's scheduling-pressure
// counters on the concurrent execution plane: how often the stage worker
// ran tasks, parked with nothing admissible, applied cross-stage
// dependency notifications, and scanned a queue where every forward was
// CSP-blocked. The simulated plane leaves these nil (a simulated stage
// never contends — it is woken exactly when something is runnable).
type StageContention struct {
	Stage        int
	Tasks        int64 // forward + backward tasks executed
	Parks        int64 // blocking waits with nothing admissible
	Notes        int64 // write/finish notifications applied
	BlockedScans int64 // admission scans finding every queued forward blocked
	Carried      int64 // pending-backward records announced upstream (Algorithm 3)
}

// StageCache is one pipeline stage's memory-context counters on the
// concurrent execution plane: the stage index and the counters
// themselves, in the one shape both planes' context manager reports.
type StageCache struct {
	Stage int
	memctx.Stats
}

// TaskSpan is one task's timeline extent on its stage. Start is the
// admission time (context acquire begins), End the completion; the task
// may have been preempted in between by backward micro-tasks.
type TaskSpan struct {
	Task    csp.Task
	StartMs float64
	EndMs   float64
	StallMs float64
}

// event kinds, processed in (time, emission order).
type evKind int

const (
	evArrive    evKind = iota // a task's input lands on its stage
	evMicroDone               // a micro-task ended, or a context arrived (subnet -1)
)

type event struct {
	time   float64
	order  uint64
	kind   evKind
	stage  int
	subnet int
	tkind  csp.Kind // evArrive: which task's input
}

// eventQueue is a binary min-heap of events by (time, order). order is
// unique, so the key is a total order and the pop sequence is fixed by
// the pushes alone, whatever the heap's internal layout.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].order < q[j].order
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return top
}

// execState is one admitted task being executed as a sequence of
// per-layer micro-tasks. Real stages run one CUDA kernel per layer, so a
// higher-priority task (a backward) preempts a running forward at the
// next layer boundary rather than waiting out the whole stage pass.
type execState struct {
	t           csp.Task
	remaining   []float64 // per-layer compute cost at the run batch, in order
	next        int       // index of the next micro-task
	availableAt float64   // context Acquire completion
	computeMs   float64   // accumulated compute (for metrics)
	stallSeen   bool
	stallMs     float64
	startedAt   float64

	// Telemetry span state (untouched when Config.Telemetry is nil): a
	// span opens at the first dispatched micro-task, splits at preemption
	// boundaries, and closes at completion.
	spanOpen    bool
	everStarted bool
}

func (x *execState) done() bool { return x.next >= len(x.remaining) }

// stageState is the simulator's side of one stage: its machine, and the
// compute unit the machine's admitted tasks share micro-step by
// micro-step.
type stageState struct {
	m        *stage
	running  bool         // a micro-task is in flight
	active   []*execState // admitted tasks; at most one forward
	busyMs   float64
	stallMs  float64
	actBytes int64 // activation footprint at the chosen batch

	// cur is the exec whose telemetry span is currently open on this
	// stage's compute worker (nil when telemetry is disabled or idle).
	cur *execState
}

func (st *stageState) hasForwardActive() bool {
	for _, x := range st.active {
		if x.t.Kind == csp.Forward {
			return true
		}
	}
	return false
}

// Engine runs one simulation: the stage machines' driver on a
// discrete-event clock.
type Engine struct {
	cfg    Config
	policy Policy
	traits Traits
	w      *World

	events   eventQueue
	evOrder  uint64
	nowMs    float64
	stages   []*stageState
	mem      []*memctx.Manager
	batch    int
	refBatch int
	msgBytes int64 // one activation or gradient message at the run batch

	// per-subnet per-stage task durations (compute+stall) for the exec
	// metric.
	fwdDur, bwdDur [][]float64

	inflightArea float64 // ∫ inflight dt
	lastInfT     float64
	tr           *trace.Trace
	spans        []TaskSpan
	mirrorB      int64
	tel          *telemetry.Bus // nil = telemetry disabled
}

// Run simulates the policy on the config and returns the result. Invalid
// configurations (bad cluster spec, malformed injected subnet streams)
// surface as errors. A Result with Failed set is not an error: it means a
// valid configuration that this system cannot run (e.g. parameters exceed
// GPU memory), which the paper's tables report as a data point.
func Run(cfg Config, policy Policy) (Result, error) {
	return RunContext(context.Background(), cfg, policy)
}

// ctxCheckInterval is how many simulator events pass between cooperative
// cancellation checks in RunContext's event loop.
const ctxCheckInterval = 1024

// RunContext is Run with cooperative cancellation: the event loop checks
// ctx between simulated events and, when cancelled, returns the partial
// Result accumulated so far together with ctx.Err(). The partial result
// has Deadlock set (the run did not complete) and Completed reflecting
// the subnets that finished before cancellation.
func RunContext(ctx context.Context, cfg Config, policy Policy) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return Result{}, fmt.Errorf("engine: invalid cluster spec: %w", err)
	}
	if cfg.Faults.Enabled() {
		return Result{}, fmt.Errorf("engine: fault injection targets the concurrent plane; the simulated clock has no goroutines to crash")
	}
	if cfg.Checkpoint != nil || cfg.SeqBase != 0 {
		return Result{}, fmt.Errorf("engine: checkpoint/resume (Checkpoint, SeqBase) is a concurrent-plane feature")
	}
	if cfg.Probe != nil {
		return Result{}, fmt.Errorf("engine: the health probe (Probe) is a concurrent-plane feature; the simulated clock has no live run to watch")
	}
	if err := cfg.validateTiming(); err != nil {
		return Result{}, err
	}
	traits := policy.Traits()
	if cfg.SimCacheFactor > 0 {
		traits.CacheFactor = cfg.SimCacheFactor
	}
	w, err := NewWorld(cfg, traits.Partition)
	if err != nil {
		return Result{}, err
	}
	e := &Engine{cfg: cfg, policy: policy, traits: traits, w: w, tel: cfg.Telemetry}
	res := Result{
		Policy: e.traits.Name, Space: cfg.Space.Name, D: cfg.Spec.GPUs,
		SupernetBytes: e.w.Net.TotalParamBytes(),
	}
	if failReason := e.sizeBatch(&res); failReason != "" {
		res.Failed = true
		res.FailReason = failReason
		return res, nil
	}
	e.setup()
	e.loop(ctx)
	e.finish(&res)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// NewWorld validates the config's subnet stream and builds the run
// context shared by the simulated and concurrent execution planes.
func NewWorld(cfg Config, mode PartitionMode) (*World, error) {
	net := supernet.Build(cfg.Space)
	subs := cfg.Subnets
	if len(subs) == 0 {
		subs = supernet.Sample(cfg.Space, cfg.Seed, cfg.NumSubnets)
	} else {
		for i, sub := range subs {
			if sub.Seq != i {
				return nil, fmt.Errorf("engine: injected subnet stream has gapped sequence IDs: position %d carries seq %d", i, sub.Seq)
			}
			if len(sub.Choices) != cfg.Space.Blocks {
				return nil, fmt.Errorf("engine: injected subnet %d has %d choices, space %s has %d blocks",
					i, len(sub.Choices), cfg.Space.Name, cfg.Space.Blocks)
			}
		}
	}
	d := cfg.Spec.GPUs
	home := partition.Static(net, d)
	parts := make([]partition.Partition, len(subs))
	for i, sub := range subs {
		if mode == PartitionBalanced {
			parts[i] = partition.BalancedForSubnet(net, sub, d)
		} else {
			parts[i] = home
		}
	}
	w := &World{
		Space: cfg.Space, Net: net, Spec: cfg.Spec, D: d,
		Subnets: subs, Home: home, Parts: parts,
		SeqBase: cfg.SeqBase,
	}
	w.BuildIndexes()
	return w, nil
}

// sizeBatch derives the pipeline batch from the memory model and fills
// the memory-related result columns. It returns a non-empty reason when
// the configuration cannot run at all.
func (e *Engine) sizeBatch(res *Result) string {
	w := e.w
	d := w.D
	e.refBatch = cluster.RefBatch(w.Space.Domain)
	stash := e.traits.ActStashFactor
	if stash <= 0 {
		stash = 1
	}

	resident := make([]int64, d)
	layersIn := make([]float64, d)
	if e.traits.CacheFactor == 0 {
		// Whole supernet partition resident per stage (home partition).
		for k := 0; k < d; k++ {
			lo, hi := w.Home.Blocks(k)
			var bytes int64
			for b := lo; b < hi; b++ {
				for c := 0; c < w.Space.Choices; c++ {
					bytes += w.Net.Layer(b, c).ParamBytes
				}
			}
			resident[k] = bytes
			layersIn[k] = float64(hi - lo)
		}
	} else {
		// For batch sizing only the steady-state executing context plus a
		// small in-flight margin competes with activations: NASPipe's
		// memory-limit check delays prefetch copies under pressure
		// instead of shrinking the batch, so transient cache overage
		// (up to CacheFactor×) does not consume activation budget.
		budget := e.traits.CacheFactor
		if budget > 1.2 {
			budget = 1.2
		}
		// The budget is provisioned from the average subnet partition under
		// the supernet's *home* placement — a profile-time constant, so
		// systems with different execution partitions (balanced vs static)
		// still provision (and batch) identically, as in Table 2 where
		// NASPipe and VPipe share the same batch column.
		for k := 0; k < d; k++ {
			var sum int64
			var blocks float64
			lo, hi := w.Home.Blocks(k)
			for i, sub := range w.Subnets {
				for b := lo; b < hi; b++ {
					sum += w.Net.Layer(b, sub.Choices[b]).ParamBytes
				}
				plo, phi := w.Parts[i].Blocks(k)
				blocks += float64(phi - plo)
			}
			avg := float64(sum) / float64(len(w.Subnets))
			resident[k] = int64(budget * avg)
			layersIn[k] = blocks / float64(len(w.Subnets))
		}
	}

	batch := e.refBatch
	for k := 0; k < d; k++ {
		nl := int(math.Ceil(layersIn[k] * stash))
		if nl < 1 {
			nl = 1
		}
		bk := e.cfg.Spec.MaxBatch(resident[k], nl, w.Space.Domain)
		if bk == 0 {
			return fmt.Sprintf("stage %d parameters (%d bytes) exceed GPU memory", k, resident[k])
		}
		if bk < batch {
			batch = bk
		}
	}
	if e.cfg.BatchOverride > 0 {
		batch = e.cfg.BatchOverride
	}
	e.batch = batch
	res.Batch = batch

	// Report the full cache budget (CacheFactor×) as the resident
	// parameter figure — the paper's "Para." column counts the whole
	// cache (current + previous + prefetched subnet).
	var cached int64
	for k := 0; k < d; k++ {
		if e.traits.CacheFactor > 0 {
			cached += int64(float64(resident[k]) * e.traits.CacheFactor / min(e.traits.CacheFactor, 1.2))
		} else {
			cached += resident[k]
		}
	}
	res.CachedParamBytes = cached
	if e.traits.CacheFactor > 0 {
		res.CPUMemBytes = w.Net.TotalParamBytes()
	}
	// Peak GPU memory: resident parameters plus activation footprint.
	var gpuTotal int64
	e.stages = make([]*stageState, d)
	for k := 0; k < d; k++ {
		act := int64(float64(cluster.ActBytesPerSample(w.Space.Domain))*layersIn[k]*stash) * int64(batch)
		use := resident[k] + act
		if use > e.cfg.Spec.GPUMemBytes {
			use = e.cfg.Spec.GPUMemBytes
		}
		gpuTotal += use
		e.stages[k] = &stageState{actBytes: act}
	}
	res.GPUMemBytes = gpuTotal
	res.GPUMemX = float64(gpuTotal) / float64(e.cfg.Spec.GPUMemBytes)
	return ""
}

func (e *Engine) setup() {
	w := e.w
	d := w.D
	e.mem = make([]*memctx.Manager, d)
	for k := 0; k < d; k++ {
		var capacity int64 = -1
		if e.traits.CacheFactor > 0 {
			capacity = w.cacheCapacity(k, e.traits.CacheFactor)
		}
		m := memctx.New(capacity, e.cfg.Spec.PCIeBytesPerMs)
		if e.traits.CacheFactor == 0 {
			// Whole context resident: preload every candidate layer of
			// the stage's home blocks.
			lo, hi := w.Home.Blocks(k)
			var ids []supernet.LayerID
			for b := lo; b < hi; b++ {
				for c := 0; c < w.Space.Choices; c++ {
					ids = append(ids, w.Space.ID(b, c))
				}
			}
			m.Preload(ids, w.bytesOf)
		}
		e.mem[k] = m
	}
	e.fwdDur = make([][]float64, len(w.Subnets))
	e.bwdDur = make([][]float64, len(w.Subnets))
	for i := range w.Subnets {
		e.fwdDur[i] = make([]float64, d)
		e.bwdDur[i] = make([]float64, d)
	}
	if e.cfg.RecordTrace {
		e.tr = &trace.Trace{}
	}
	e.msgBytes = int64(e.batch) * cluster.SampleBytes(w.Space.Domain)
	e.policy.Init(w)
	tr := desTraits(e.traits)
	for k, st := range e.stages {
		st.m = newStage(k, w, e.policy, e, tr, e.cfg.InflightLimit, e.tel != nil)
	}
	e.stages[0].m.refill()
	e.wakeAll()
}

func (e *Engine) push(ev event) {
	ev.order = e.evOrder
	e.evOrder++
	e.events.push(ev)
}

func (e *Engine) loop(ctx context.Context) {
	guard := 0
	maxEvents := len(e.w.Subnets)*e.w.D*(2*e.w.Space.Blocks+40) + 1000
	for len(e.events) > 0 {
		guard++
		if guard > maxEvents {
			return // deadlock guard; finish() flags incompleteness
		}
		if guard%ctxCheckInterval == 0 && ctx.Err() != nil {
			return // cancelled; finish() reports the partial run
		}
		ev := e.events.pop()
		e.nowMs = ev.time
		switch ev.kind {
		case evArrive:
			e.stages[ev.stage].m.arrive(ev.tkind, ev.subnet, nil)
			e.wake(ev.stage)
		case evMicroDone:
			e.microDone(ev)
		}
	}
}

func (e *Engine) wakeAll() {
	for k := 0; k < e.w.D; k++ {
		e.wake(k)
	}
}

// wake admits ready tasks to the stage's active set — every backward the
// policy releases (they preempt at the next micro boundary), then at most
// one forward if none is active — and, if no micro-task is in flight,
// dispatches the next one.
func (e *Engine) wake(k int) {
	st := e.stages[k]
	for {
		kind, idx := st.m.pick(!st.hasForwardActive())
		if idx < 0 {
			break
		}
		if k == 0 && kind == csp.Forward {
			e.accrueInflight()
		}
		st.m.admit(kind, idx)
		if kind == csp.Forward {
			break
		}
	}
	e.dispatch(k)
}

// accrueInflight integrates the subnets in flight up to now; call it
// before stage 0 admits a forward or retires a subnet.
func (e *Engine) accrueInflight() {
	m := e.stages[0].m
	inflight := m.retrieved - len(m.fwdQ) - m.bwdDone
	e.inflightArea += float64(inflight) * (e.nowMs - e.lastInfT)
	e.lastInfT = e.nowMs
}

// dispatch starts the highest-priority pending micro-task if the stage's
// compute unit is free. Backwards run before forwards; among backwards,
// the lowest subnet sequence wins (the §3.2 priority).
func (e *Engine) dispatch(k int) {
	st := e.stages[k]
	if st.running {
		return
	}
	var pick *execState
	for _, x := range st.active {
		if x.done() || x.availableAt > e.nowMs {
			continue
		}
		if pick == nil {
			pick = x
			continue
		}
		if x.t.Kind == csp.Backward && (pick.t.Kind == csp.Forward || x.t.Subnet < pick.t.Subnet) {
			pick = x
		}
	}
	if pick == nil {
		// Nothing runnable now; if contexts are still arriving, schedule a
		// wake at the earliest availability.
		var soonest float64 = -1
		for _, x := range st.active {
			if !x.done() && x.availableAt > e.nowMs {
				if soonest < 0 || x.availableAt < soonest {
					soonest = x.availableAt
				}
			}
		}
		if soonest >= 0 {
			e.push(event{time: soonest, kind: evMicroDone, stage: k, subnet: -1})
		}
		return
	}
	e.telSpanSwitch(st, pick)
	if !pick.stallSeen {
		pick.stallSeen = true
		st.stallMs += pick.stallMs
	}
	dur := pick.remaining[pick.next]
	pick.next++
	pick.computeMs += dur
	st.busyMs += dur
	st.running = true
	e.push(event{time: e.nowMs + dur, kind: evMicroDone, stage: k, subnet: pick.t.Subnet})
}

// microDone advances the stage after a micro-task (or a context-arrival
// wakeup, subnet == -1) and completes tasks whose layers are exhausted.
func (e *Engine) microDone(ev event) {
	k := ev.stage
	st := e.stages[k]
	if ev.subnet >= 0 {
		st.running = false
	}
	// Complete any finished execs.
	kept := st.active[:0]
	var completed []*execState
	for _, x := range st.active {
		if x.done() {
			completed = append(completed, x)
		} else {
			kept = append(kept, x)
		}
	}
	st.active = kept
	for _, x := range completed {
		e.completeTask(x)
	}
	e.wake(k)
}

// completeTask closes a task's span and metrics and hands it back to its
// stage machine (release, WRITEs, note, next hop). A completed backward's
// WRITE may unblock forwards on any stage.
func (e *Engine) completeTask(x *execState) {
	t := x.t
	k, seq := t.Stage, t.Subnet
	w := e.w
	if e.tr != nil {
		e.spans = append(e.spans, TaskSpan{Task: t, StartMs: x.startedAt, EndMs: e.nowMs, StallMs: x.stallMs})
	}
	if e.tel != nil {
		if x.spanOpen {
			e.stages[k].m.event(telemetry.OpTaskComplete, telemetry.PhaseEnd, seq, t.Kind, 0)
			x.spanOpen = false
		}
		if e.stages[k].cur == x {
			e.stages[k].cur = nil
		}
	}
	if t.Kind == csp.Forward {
		e.fwdDur[seq][k] = x.computeMs + x.stallMs
		e.stages[k].m.complete(t)
		return
	}
	e.bwdDur[seq][k] = x.computeMs + x.stallMs
	// Mirror push accounting: layers executing off their home stage push
	// updated parameters to the home copy (§4.2).
	lo, hi := w.Parts[seq].Blocks(k)
	for b := lo; b < hi; b++ {
		if w.Home.StageOf(b) != k {
			e.mirrorB += w.Net.Meta[w.Space.ID(b, w.Subnets[seq].Choices[b])].ParamBytes
		}
	}
	if k == 0 {
		e.accrueInflight()
	}
	e.stages[k].m.complete(t)
	e.wakeAll()
}

// The simulator's side of the driver interface: every effect a stage
// machine asks for, at simulated time e.nowMs.

func (e *Engine) now() float64 { return e.nowMs }

func (e *Engine) fetch(_, k, seq int) {
	ids := e.w.stageIDs[seq][k]
	if e.tel != nil {
		e.tel.EmitAt(simNs(e.nowMs), telemetry.Event{
			Op: telemetry.OpPrefetchRequest, Phase: telemetry.PhaseInstant,
			Stage: int32(k), Worker: telemetry.WorkerMem,
			Subnet: -1, Kind: telemetry.KindNone, Arg: int64(len(ids)),
		})
	}
	for _, id := range ids {
		e.mem[k].Prefetch(id, e.w.bytesOf(id), e.nowMs)
	}
}

// acquire starts the task's context acquire and lays its compute out as
// per-layer micro-tasks on the stage's active set.
func (e *Engine) acquire(t csp.Task) float64 {
	k := t.Stage
	ids := e.w.stageIDs[t.Subnet][k]
	readyAt := e.mem[k].Acquire(ids, e.w.bytesOf, e.nowMs)
	if e.tel != nil && readyAt > e.nowMs {
		// Context swap-in in progress: a stall span from admission to
		// context arrival, Arg carrying the duration in nanoseconds.
		ev := telemetry.Event{
			Op: telemetry.OpCacheStall, Phase: telemetry.PhaseBegin,
			Stage: int32(k), Worker: telemetry.WorkerStage,
			Subnet: int32(t.Subnet), Kind: telKind(t.Kind),
			Arg: simNs(readyAt - e.nowMs),
		}
		e.tel.EmitAt(simNs(e.nowMs), ev)
		ev.Phase = telemetry.PhaseEnd
		e.tel.EmitAt(simNs(readyAt), ev)
	}
	x := &execState{t: t, availableAt: readyAt, stallMs: readyAt - e.nowMs, startedAt: e.nowMs}
	jitter := e.cfg.StageSpeed(k)
	if e.cfg.TimingJitter > 0 {
		r := rng.Labeled(e.cfg.JitterSeed, fmt.Sprintf("jitter/%d/%d/%d", t.Subnet, t.Stage, int(t.Kind)))
		jitter *= 1 + e.cfg.TimingJitter*(2*r.Float64()-1)
	}
	for _, id := range ids {
		m := e.w.Net.Meta[id]
		x.remaining = append(x.remaining, jitter*e.cfg.Spec.ComputeMs(m.CostMs(t.Kind == csp.Backward), e.batch, e.refBatch))
	}
	if len(x.remaining) == 0 {
		// An empty stage partition still relays activations; charge a
		// token cost so the pipeline stays well-ordered.
		x.remaining = []float64{e.cfg.Spec.ComputeMs(0.01, e.batch, e.refBatch)}
	}
	e.stages[k].active = append(e.stages[k].active, x)
	if readyAt > e.nowMs {
		// Context still swapping in: make sure the stage re-evaluates when
		// it lands even if nothing else is runnable.
		e.push(event{time: readyAt, kind: evMicroDone, stage: k, subnet: -1})
	}
	return readyAt
}

func (e *Engine) release(t csp.Task) {
	ids := e.w.stageIDs[t.Subnet][t.Stage]
	e.mem[t.Stage].Release(ids, e.nowMs)
	if t.Kind == csp.Backward && e.traits.CacheFactor > 0 {
		e.mem[t.Stage].Evict(ids, e.nowMs)
	}
}

// send delivers the message after its modelled transfer time.
func (e *Engine) send(from int, kind csp.Kind, seq int, _ []csp.PendingBackward) {
	to := from + 1
	if kind == csp.Backward {
		to = from - 1
	}
	e.push(event{time: e.nowMs + e.cfg.Spec.CommMs(from, to, e.msgBytes),
		kind: evArrive, stage: to, subnet: seq, tkind: kind})
}

// note reaches every other stage at once: the simulator models the
// mirroring push's release as instantaneous.
func (e *Engine) note(from, seq int, ids []supernet.LayerID, finished bool) {
	for k, st := range e.stages {
		if k != from {
			st.m.note(seq, ids, finished)
		}
	}
}

func (e *Engine) access(k int, ids []supernet.LayerID, seq int, kind trace.AccessKind, at float64) {
	if e.tr == nil {
		return
	}
	for _, id := range ids {
		e.tr.Append(at, id, seq, k, kind)
	}
}

func (e *Engine) emit(_ int, ev telemetry.Event) { e.tel.EmitAt(simNs(e.nowMs), ev) }

func (e *Engine) finish(res *Result) {
	w := e.w
	completed := e.stages[0].m.bwdDone
	res.Completed = completed
	res.Deadlock = completed < len(w.Subnets)
	res.TotalMs = e.nowMs
	res.Trace = e.tr
	res.Spans = e.spans
	res.MirrorBytes = e.mirrorB
	if e.nowMs <= 0 {
		return
	}
	var busy, stall float64
	var hits, misses int
	res.StageBusyMs = make([]float64, w.D)
	res.StageStallMs = make([]float64, w.D)
	for k := 0; k < w.D; k++ {
		busy += e.stages[k].busyMs
		stall += e.stages[k].stallMs
		res.StageBusyMs[k] = e.stages[k].busyMs
		res.StageStallMs[k] = e.stages[k].stallMs
		ms := e.mem[k].Stats()
		hits += ms.Hits
		misses += ms.Misses
		res.DroppedPrefetches += ms.DroppedPrefetches
	}
	res.StallMs = stall
	res.AvgInflight = e.inflightArea / e.nowMs
	res.BubbleRatio = 1 - busy/(float64(w.D)*e.nowMs)
	eff := e.cfg.Spec.EfficiencyFactor(e.batch, e.refBatch)
	res.ALUTotal = busy / e.nowMs * eff * e.cfg.Spec.MaxALU
	res.SamplesPerSec = float64(completed*e.batch) / (e.nowMs / 1000)
	res.SubnetsPerHour = float64(completed) / (e.nowMs / 3.6e6)
	if e.traits.CacheFactor > 0 && hits+misses > 0 {
		res.CacheHitRate = float64(hits) / float64(hits+misses)
	} else {
		// No swapping, or a swap system whose stages never accessed the
		// cache (idle/degenerate run): N/A, not a perfect or zero rate.
		res.CacheHitRate = -1
	}
	var execSum float64
	for i := 0; i < completed; i++ {
		var maxF, maxB float64
		for k := 0; k < w.D; k++ {
			if e.fwdDur[i][k] > maxF {
				maxF = e.fwdDur[i][k]
			}
			if e.bwdDur[i][k] > maxB {
				maxB = e.bwdDur[i][k]
			}
		}
		execSum += float64(w.D) * (maxF + maxB)
	}
	if completed > 0 {
		res.ExecMsAvg = execSum / float64(completed)
	}
}
