package train

import (
	"sync"

	"naspipe/internal/data"
	"naspipe/internal/layers"
	"naspipe/internal/supernet"
	"naspipe/internal/tensor"
)

// arena is one subnet step's scratch, every buffer in tensor's lane
// layout (tensor.Lanes items to a group) and cut from one slab: the
// packed batch input, each block's output and pre-activation gradient,
// and the output gradient carried down the chain. Activations keep that
// one layout from block to block, so no kernel packs or unpacks. A
// block's parameter gradient is a function of its pre-activation
// gradient and its input, both kept until the subnet's last write, so
// it is computed at the block's SGD write into a scratch set that stays
// hot in cache. Warm, a step allocates nothing
// (TestStepComputePathIsAllocationFree). An arena belongs to one subnet
// at a time, whose blocks run one after another on any goroutine.
type arena struct {
	dim   int
	m     int
	n     int // items in the batch
	batch data.Batch
	slab  tensor.Vector // 2m+2 lane buffers: input, block outputs, block dz's, output gradient
	g     *layers.Grads // stepOn's gradient scratch
}

func newArena(dim int) *arena { return &arena{dim: dim} }

// begin sizes the arena for a step of m blocks on batch and packs the
// batch input.
func (a *arena) begin(batch data.Batch, m int) {
	a.batch, a.m, a.n = batch, m, len(batch.Inputs)
	if size := (2*m + 2) * a.laneLen(); len(a.slab) < size {
		a.slab = make(tensor.Vector, size)
	}
	tensor.PackLanes(a.buf(0), batch.Inputs)
}

// laneLen is the length of one lane buffer of the batch.
func (a *arena) laneLen() int { return tensor.Groups(a.n) * tensor.Lanes * a.dim }

// buf returns lane buffer k: the packed input at 0, block b's output at
// b+1 and its pre-activation gradient at m+1+b, and the output gradient
// at 2m+1.
func (a *arena) buf(k int) tensor.Vector {
	n := a.laneLen()
	return a.slab[k*n : (k+1)*n : (k+1)*n]
}

// forward runs block b over the whole batch.
func (a *arena) forward(b int, l *layers.Layer) { l.ForwardBatch(a.buf(b+1), a.buf(b), a.n) }

// seed computes the loss after the last block, 0.5·‖y − target‖² summed
// item by item in order, sets each item's output gradient y − target
// (dead lanes 0), and returns the batch's average loss.
func (a *arena) seed() float32 {
	out, dy := a.buf(a.m), a.buf(2*a.m+1)
	clear(dy)
	var lossSum float32
	for i, tgt := range a.batch.Targets {
		for j := range a.dim {
			k := tensor.LaneAt(a.dim, i, j)
			d := out[k] - tgt[j]
			dy[k] = d
			lossSum += float32(0.5 * d * d)
		}
	}
	return lossSum / float32(a.n)
}

// backward runs block b's backward over the whole batch. The output
// gradient is consumed before the input gradient is written, so one
// buffer carries it down the whole chain; block 0's input gradient is
// never used and not computed.
func (a *arena) backward(b int, l *layers.Layer) {
	dy := a.buf(2*a.m + 1)
	dx := dy
	if b == 0 {
		dx = nil
	}
	l.BackwardBatch(dx, a.buf(a.m+1+b), dy, a.buf(b+1), a.n)
}

// gradient sets g to block b's parameter gradients, summed over the
// batch's items in item order; block b's backward has run.
func (a *arena) gradient(b int, g *layers.Grads) { g.SetBatch(a.buf(a.m+1+b), a.buf(b), a.n) }

// stepOn trains one subnet on batch against the live net, one block
// task after another: forward over blocks 0..m-1, backward over m-1..0,
// then each block's SGD write. It returns the batch's average loss.
func stepOn(cfg Config, net *supernet.Numeric, sub supernet.Subnet, batch data.Batch, a *arena) float32 {
	m := len(sub.Choices)
	a.begin(batch, m)
	for b, c := range sub.Choices {
		a.forward(b, net.At(b, c))
	}
	loss := a.seed()
	for b := m - 1; b >= 0; b-- {
		a.backward(b, net.At(b, sub.Choices[b]))
	}
	for b, c := range sub.Choices {
		l := net.At(b, c)
		if a.g == nil {
			a.g = l.NewGrads()
		}
		a.gradient(b, a.g)
		l.ApplySGD(a.g, cfg.LR)
	}
	return loss
}

// arenaPool recycles arenas across the stateless entry points (StepOn),
// where there is no run object to own one. Dimension is checked on the
// way out; a mismatched arena is simply dropped.
var arenaPool sync.Pool

func getArena(dim int) *arena {
	if v := arenaPool.Get(); v != nil {
		if a := v.(*arena); a.dim == dim {
			return a
		}
	}
	return newArena(dim)
}

func putArena(a *arena) {
	a.batch = data.Batch{} // the batch belongs to the step, not the pool
	arenaPool.Put(a)
}
