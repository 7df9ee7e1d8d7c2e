// Package engine runs NASPipe-Go's pipelines: one stage machine
// (stage.go) driven by two clocks.
//
// Every pipeline stage is the same machine on both execution planes: a
// forward queue and a ready-backward set, backward-first selection and
// admission through a Policy — the one admission seam, since task
// selection is the part the paper varies between systems — Algorithm 3's
// forecasts, the context push to the neighbour that runs the subnet next,
// READ/WRITE emission, the write/finish note, the next hop, and stage 0's
// refill under the in-flight window. The simulator (engine.go) drives it
// on a deterministic discrete-event clock and reproduces the paper's
// tables and figures for every policy (NASPipe's CSP, GPipe's BSP,
// PipeDream's ASP, VPipe, the ablations). The goroutine plane
// (concurrent.go) drives it on the wall clock, one goroutine per stage
// under the CSP admission, and shows that Definition 1 holds on real
// parallel execution, under injected faults, across processes.
//
// Determinism: the simulator's event queue is ordered by (time, insertion
// sequence), every iteration over stages and queues is in fixed order,
// and policies receive no randomness, so a simulated run's result is a
// pure function of (space, subnet stream, cluster spec, policy).
package engine

import (
	"fmt"
	"slices"

	"naspipe/internal/cluster"
	"naspipe/internal/csp"
	"naspipe/internal/partition"
	"naspipe/internal/supernet"
)

// PartitionMode selects how subnets are partitioned across stages.
type PartitionMode int

// Partition modes.
const (
	// PartitionBalanced gives every subnet its own cost-balanced
	// partition, with layer mirroring reconciling it against the home
	// placement (NASPipe, §4.2).
	PartitionBalanced PartitionMode = iota
	// PartitionStatic runs every subnet on the supernet's static home
	// partition (GPipe, PipeDream, VPipe, NASPipe w/o mirroring).
	PartitionStatic
)

// Traits declares a policy's fixed systems behaviour — the knobs that are
// configuration rather than per-task decisions.
type Traits struct {
	Name         string
	Reproducible bool // does the schedule preserve CSP?
	Partition    PartitionMode

	// CacheFactor sizes each stage's GPU parameter cache as a multiple of
	// the stage's average subnet-partition footprint. Zero means the
	// whole supernet partition stays resident (no swapping, the
	// GPipe/PipeDream memory regime, also NASPipe-w/o-predictor).
	CacheFactor float64

	// UsePredictor enables Algorithm 3 prefetching (NASPipe).
	UsePredictor bool

	// PrefetchOnArrival prefetches a backward's context as soon as its
	// gradient arrives at the stage, and pushes the next stage's context
	// when a task is admitted (NASPipe's context manager runs
	// asynchronously with execution). VPipe swaps on demand and leaves
	// this off.
	PrefetchOnArrival bool

	// ActStashFactor multiplies per-sample activation memory. 1 for
	// systems with activation recomputation (GPipe checkpointing —
	// enabled for NASPipe, GPipe, VPipe); 2 for PipeDream, which stashes
	// activations for asynchronous weight versions.
	ActStashFactor float64
}

// World is the read-only run context handed to policies at Init.
type World struct {
	Space   supernet.Space
	Net     *supernet.Supernet
	Spec    cluster.Spec
	D       int
	Subnets []supernet.Subnet

	// Home is the static block partition; Parts[i] is subnet i's
	// execution partition (equal to Home under PartitionStatic).
	Home  partition.Partition
	Parts []partition.Partition

	// SeqBase is the global sequence ID of Subnets[0] (Config.SeqBase):
	// nonzero when this world is the uncommitted suffix of a resumed
	// stream. Externally visible seqs (canonical trace, telemetry) are
	// local index + SeqBase.
	SeqBase int

	// allIDs[i] is subnet i's full layer set in block order, and
	// stageIDs[i][k] its layers on stage k under Parts[i]: the stage's
	// block range of allIDs[i]. Every row is carved from per-world slabs.
	stageIDs [][][]supernet.LayerID
	allIDs   [][]supernet.LayerID
}

// buildIndexes populates the derived per-subnet layer indexes from Space,
// Subnets and Parts. A partition's stages are contiguous block ranges, so
// a stage's layer IDs are a subslice of the subnet's; one slab holds
// every subnet's IDs and another every subnet's row of stage slices.
func (w *World) buildIndexes() {
	n, d, m := len(w.Subnets), w.D, w.Space.Blocks
	ids := make([]supernet.LayerID, n*m)
	rows := make([][]supernet.LayerID, n*d)
	w.allIDs = make([][]supernet.LayerID, n)
	w.stageIDs = make([][][]supernet.LayerID, n)
	for i, sub := range w.Subnets {
		all := ids[i*m : (i+1)*m : (i+1)*m]
		for b, c := range sub.Choices {
			all[b] = w.Space.ID(b, c)
		}
		row := rows[i*d : (i+1)*d : (i+1)*d]
		for k := range row {
			lo, hi := w.Parts[i].Blocks(k)
			row[k] = all[lo:hi:hi]
		}
		w.allIDs[i], w.stageIDs[i] = all, row
	}
}

// StageLayerIDs returns subnet seq's layers on the stage under its
// execution partition.
func (w *World) StageLayerIDs(seq, stage int) []supernet.LayerID {
	return w.stageIDs[seq][stage]
}

// AllLayerIDs returns every layer of subnet seq.
func (w *World) AllLayerIDs(seq int) []supernet.LayerID { return w.allIDs[seq] }

// bytesOf sizes a layer's parameters, for both planes' memory contexts.
func (w *World) bytesOf(id supernet.LayerID) int64 { return w.Net.Meta[id].ParamBytes }

// cacheCapacity is stage k's memory-context budget on either execution
// plane: factor × the mean stage-k partition footprint over the stream
// (the paper's 3 = executing + evicting + prefetched subnet).
func (w *World) cacheCapacity(k int, factor float64) int64 {
	var sum int64
	for i := range w.Subnets {
		for _, id := range w.stageIDs[i][k] {
			sum += w.bytesOf(id)
		}
	}
	return int64(factor * float64(sum) / float64(len(w.Subnets)))
}

// Policy decides which task a stage runs next. The stage machine asks
// SelectBackward before SelectForward (backward-first priority is decided
// by each policy: returning -1 from SelectBackward defers the backward).
//
// Selection functions receive the stage's candidate list and must return
// an index into it or -1; returning an index means the machine
// immediately starts that task. The list is the machine's own: a policy
// must not keep it. Completion hooks fire when a task's compute finishes
// on its stage. Every method but Traits and Init concerns one stage; a
// policy whose methods touch only that stage's state (CSP) may be called
// from the goroutine plane's stage goroutines concurrently, one whose
// counters are shared across stages (BSP's bulk barrier) may not.
type Policy interface {
	Traits() Traits
	Init(w *World)
	SelectBackward(stage int, ready []int, now float64) int
	SelectForward(stage int, queue []int, now float64) int
	OnForwardDone(stage, seq int, now float64)
	OnBackwardDone(stage, seq int, now float64)
	// Note tells stage that subnet seq's WRITE of ids has flushed, on
	// that stage or another; finished marks the write of the subnet's
	// backward on stage 0, which retires the subnet. The simulator
	// delivers every note to every stage at once; the goroutine plane
	// delivers it by message only to the stages that run the written
	// layers' next readers, and only stage 0 hears finished — enough
	// under csp.Scheduler.MarkWritten's release-through rule.
	Note(stage, seq int, ids []supernet.LayerID, finished bool)
	// Blocker returns the earlier subnet whose unfinished WRITE holds
	// subnet seq's forward back on stage, or -1 when no dependency does.
	Blocker(stage, seq int) int
	// PredictBackward/PredictForward implement Algorithm 3's two call
	// sites: they append to dst the subnets whose stage context should be
	// prefetched and return it. carried holds the pending-backward records
	// that rode in with seq's gradient. Only consulted when the run
	// predicts (Traits().UsePredictor on the simulator,
	// MemPlaneConfig.Predictor on the goroutine plane).
	PredictBackward(stage int, queue []int, seq int, carried []csp.PendingBackward, dst []csp.Fetch) []csp.Fetch
	PredictForward(stage int, queue []int, seq int, dst []csp.Fetch) []csp.Fetch
}

// BasePolicy provides no-op defaults so simple policies only implement
// what they need.
type BasePolicy struct{}

// Init is a no-op.
func (BasePolicy) Init(*World) {}

// SelectBackward runs the lowest-sequence ready backward, backward-first
// (§3.2 heuristic 1: the oldest subnet's write retires the most
// dependencies).
func (BasePolicy) SelectBackward(stage int, ready []int, now float64) int {
	if len(ready) == 0 {
		return -1
	}
	return slices.Index(ready, slices.Min(ready))
}

// OnForwardDone is a no-op.
func (BasePolicy) OnForwardDone(stage, seq int, now float64) {}

// OnBackwardDone is a no-op.
func (BasePolicy) OnBackwardDone(stage, seq int, now float64) {}

// Note ignores write releases: the policy tracks no dependencies.
func (BasePolicy) Note(stage, seq int, ids []supernet.LayerID, finished bool) {}

// Blocker reports no dependency.
func (BasePolicy) Blocker(stage, seq int) int { return -1 }

// PredictBackward predicts nothing.
func (BasePolicy) PredictBackward(stage int, queue []int, seq int, carried []csp.PendingBackward, dst []csp.Fetch) []csp.Fetch {
	return dst
}

// PredictForward predicts nothing.
func (BasePolicy) PredictForward(stage int, queue []int, seq int, dst []csp.Fetch) []csp.Fetch {
	return dst
}

// CSP is NASPipe's causal synchronous parallel admission (§3.2,
// Algorithms 2–3), the one both planes run: per stage, a csp.Scheduler
// admits forwards and a csp.Predictor forecasts prefetches; backwards go
// first, lowest sequence first (BasePolicy). Every
// method touches only its stage's scheduler and predictor, so stage
// goroutines share one CSP without locks.
type CSP struct {
	BasePolicy
	reorder bool
	scheds  []*csp.Scheduler // per stage; nil for a stage run elsewhere
	preds   []*csp.Predictor
}

// NewCSP returns the CSP admission. Without reorder, Algorithm 2's queue
// scan is off: forwards are admitted strictly FIFO and a blocked head
// stalls the stage (NASPipe w/o scheduler).
func NewCSP(reorder bool) *CSP { return &CSP{reorder: reorder} }

// Traits names the admission; the goroutine plane takes its memory
// regime from Config.ConcurrentMem, the simulator from the wrapping
// policy's traits.
func (p *CSP) Traits() Traits {
	return Traits{Name: "NASPipe", Reproducible: true, Partition: PartitionBalanced, ActStashFactor: 1}
}

// Init registers the stream with one scheduler and predictor per stage.
func (p *CSP) Init(w *World) {
	if err := p.init(w, nil); err != nil {
		panic(err)
	}
}

// init registers the stream on the given stages (every stage when nil),
// all subnets in sequence order.
func (p *CSP) init(w *World, stages []int) error {
	p.scheds = make([]*csp.Scheduler, w.D)
	p.preds = make([]*csp.Predictor, w.D)
	for k := 0; k < w.D; k++ {
		if stages != nil && !slices.Contains(stages, k) {
			continue
		}
		s := csp.New(k)
		for i := range w.Subnets {
			if err := s.AddSubnet(csp.SubnetInfo{
				Seq:         i,
				AllLayers:   w.AllLayerIDs(i),
				StageLayers: w.StageLayerIDs(i, k),
			}); err != nil {
				return fmt.Errorf("engine: CSP scheduler init: %w", err)
			}
		}
		p.scheds[k], p.preds[k] = s, csp.NewPredictor(s)
	}
	return nil
}

// SelectForward runs Algorithm 2 over the stage queue; without reorder
// it degenerates to head-of-line FIFO with dependency stalls.
func (p *CSP) SelectForward(stage int, queue []int, now float64) int {
	if len(queue) == 0 {
		return -1
	}
	if !p.reorder {
		if p.scheds[stage].Blocked(queue[0]) {
			return -1
		}
		return 0
	}
	qidx, _ := p.scheds[stage].Schedule(queue)
	return qidx
}

// Note applies a write release to the stage's scheduler: per-layer
// MarkWritten, which releases through seq (the mirroring push of §4.2
// doubles as the dependency release), then MarkFinished once the
// subnet's backward reached stage 0.
func (p *CSP) Note(stage, seq int, ids []supernet.LayerID, finished bool) {
	s := p.scheds[stage]
	s.MarkWritten(seq, ids)
	if finished {
		s.MarkFinished(seq)
	}
}

// Blocker names the smallest unfinished earlier writer blocking seq.
func (p *CSP) Blocker(stage, seq int) int { return p.scheds[stage].BlockingWriter(seq) }

// PredictBackward is Algorithm 3's call before a backward pass.
func (p *CSP) PredictBackward(stage int, queue []int, seq int, carried []csp.PendingBackward, dst []csp.Fetch) []csp.Fetch {
	return p.preds[stage].OnBackward(dst, queue, seq, carried)
}

// PredictForward is Algorithm 3's call before a forward pass.
func (p *CSP) PredictForward(stage int, queue []int, seq int, dst []csp.Fetch) []csp.Fetch {
	return p.preds[stage].OnForward(dst, queue, seq)
}
