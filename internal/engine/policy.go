// Package engine is NASPipe-Go's deterministic discrete-event pipeline
// simulator: the substrate on which every scheduling policy (NASPipe's
// CSP, GPipe's BSP, PipeDream's ASP, VPipe, and the ablations) executes.
//
// The engine owns everything a real pipeline runtime owns except task
// *selection*: stage workers, activation/gradient messages with modeled
// communication delays, per-stage GPU memory managers with PCIe swap
// timing, batch sizing against GPU memory, metric collection, and
// parameter-access trace emission. Task selection — the part the paper
// varies between systems — is delegated to a Policy.
//
// Determinism: the event queue is ordered by (time, insertion sequence),
// every iteration over stages and queues is in fixed order, and policies
// receive no randomness. A run's result is a pure function of
// (space, subnet stream, cluster spec, policy).
package engine

import (
	"naspipe/internal/cluster"
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

	// PrefetchOnArrival prefetches a task's context as soon as its input
	// message arrives at the stage (NASPipe's context manager runs
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

	// stageIDs[i][k] are subnet i's layer IDs on stage k under Parts[i];
	// allIDs[i] is the full layer set.
	stageIDs [][][]supernet.LayerID
	allIDs   [][]supernet.LayerID
}

// BuildIndexes populates the derived per-subnet layer indexes from Space,
// Subnets, and Parts. Run() calls it during world construction; tests or
// external world builders must call it before handing the World to a
// policy.
func (w *World) BuildIndexes() {
	w.stageIDs = make([][][]supernet.LayerID, len(w.Subnets))
	w.allIDs = make([][]supernet.LayerID, len(w.Subnets))
	for i, sub := range w.Subnets {
		w.allIDs[i] = sub.LayerIDs(w.Space)
		w.stageIDs[i] = make([][]supernet.LayerID, w.D)
		for k := 0; k < w.D; k++ {
			lo, hi := w.Parts[i].Blocks(k)
			ids := make([]supernet.LayerID, 0, hi-lo)
			for b := lo; b < hi; b++ {
				ids = append(ids, w.Space.ID(b, sub.Choices[b]))
			}
			w.stageIDs[i][k] = ids
		}
	}
}

// StageLayerIDs returns subnet seq's layers on the stage under its
// execution partition.
func (w *World) StageLayerIDs(seq, stage int) []supernet.LayerID {
	return w.stageIDs[seq][stage]
}

// AllLayerIDs returns every layer of subnet seq.
func (w *World) AllLayerIDs(seq int) []supernet.LayerID { return w.allIDs[seq] }

// cacheCapacity is stage k's memory-context budget on either execution
// plane: factor × the mean stage-k partition footprint over the stream
// (the paper's 3 = executing + evicting + prefetched subnet).
func (w *World) cacheCapacity(k int, factor float64) int64 {
	var sum int64
	for i := range w.Subnets {
		for _, id := range w.stageIDs[i][k] {
			sum += w.Net.Meta[id].ParamBytes
		}
	}
	return int64(factor * float64(sum) / float64(len(w.Subnets)))
}

// Policy decides which task a stage runs next. The engine calls
// SelectBackward before SelectForward (backward-first priority is decided
// by each policy: returning -1 from SelectBackward defers the backward).
//
// Selection functions receive the stage's candidate list and must return
// an index into it or -1; returning an index means the engine immediately
// starts that task. Completion hooks fire when a task's compute finishes
// on its stage.
type Policy interface {
	Traits() Traits
	Init(w *World)
	SelectBackward(stage int, ready []int, now float64) int
	SelectForward(stage int, queue []int, now float64) int
	OnForwardDone(stage, seq int, now float64)
	OnBackwardDone(stage, seq int, now float64)
	// PredictBackward/PredictForward implement Algorithm 3's two call
	// sites and return subnet sequence IDs whose stage context should be
	// prefetched. Only consulted when Traits().UsePredictor is set.
	PredictBackward(stage int, queue []int, seq int, now float64) []int
	PredictForward(stage int, queue []int, seq int, now float64) []int
}

// BasePolicy provides no-op defaults so simple policies only implement
// what they need.
type BasePolicy struct{}

// Init is a no-op.
func (BasePolicy) Init(*World) {}

// SelectBackward runs backwards in arrival order, backward-first.
func (BasePolicy) SelectBackward(stage int, ready []int, now float64) int {
	if len(ready) == 0 {
		return -1
	}
	return 0
}

// SelectForward runs forwards FIFO.
func (BasePolicy) SelectForward(stage int, queue []int, now float64) int {
	if len(queue) == 0 {
		return -1
	}
	return 0
}

// OnForwardDone is a no-op.
func (BasePolicy) OnForwardDone(stage, seq int, now float64) {}

// OnBackwardDone is a no-op.
func (BasePolicy) OnBackwardDone(stage, seq int, now float64) {}

// PredictBackward predicts nothing.
func (BasePolicy) PredictBackward(stage int, queue []int, seq int, now float64) []int { return nil }

// PredictForward predicts nothing.
func (BasePolicy) PredictForward(stage int, queue []int, seq int, now float64) []int { return nil }
