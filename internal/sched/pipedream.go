package sched

import "naspipe/internal/engine"

// ASPPolicy implements PipeDream's asynchronous parallel 1F1B schedule:
// each stage interleaves one forward with one backward in steady state,
// parameter updates apply asynchronously with no flush barrier, and no
// causal dependency between subnets is observed. The pipeline keeps at
// most D subnets in flight (stage k admits a forward only while fewer
// than D−k of its forwards await their backward), which is what keeps the
// bubble ratio near 0.1.
//
// PipeDream does not use activation recomputation (§4.2 note); it stashes
// activations per in-flight weight version, which the engine models as a
// doubled activation footprint — the reason its supported batch is about
// half of GPipe's in Table 2.
type ASPPolicy struct {
	engine.BasePolicy
	w           *engine.World
	outstanding []int // per stage: forwards started minus backwards done
}

// NewPipeDream returns the PipeDream baseline.
func NewPipeDream() *ASPPolicy { return &ASPPolicy{} }

// Traits implements engine.Policy.
func (p *ASPPolicy) Traits() engine.Traits {
	return engine.Traits{
		Name:           "PipeDream",
		Reproducible:   false,
		Partition:      engine.PartitionStatic,
		CacheFactor:    0,
		ActStashFactor: 2,
	}
}

// Init implements engine.Policy.
func (p *ASPPolicy) Init(w *engine.World) {
	p.w = w
	p.outstanding = make([]int, w.D)
}

// SelectForward admits the head of the queue while the stage's 1F1B
// in-flight budget (D − stage) has room. Returning an index starts the
// task immediately (engine contract), so the budget is charged here.
func (p *ASPPolicy) SelectForward(stage int, queue []int, now float64) int {
	if len(queue) == 0 {
		return -1
	}
	if p.outstanding[stage] >= p.w.D-stage {
		return -1
	}
	p.outstanding[stage]++
	return 0
}

// OnBackwardDone returns the in-flight budget. Backwards drain through
// BasePolicy's lowest-sequence-first selection, which the stage machine
// asks before any forward — together that realizes 1F1B.
func (p *ASPPolicy) OnBackwardDone(stage, seq int, now float64) {
	p.outstanding[stage]--
}

var _ engine.Policy = (*ASPPolicy)(nil)
