package train

import (
	"sync"

	"naspipe/internal/data"
	"naspipe/internal/layers"
	"naspipe/internal/supernet"
	"naspipe/internal/tensor"
)

// arena is one subnet step's scratch: the batch, every item's block
// outputs and output gradient, the pre-activation scratch, and per
// block the gradient set its backward sums into. Warm, its forward and
// backward allocate nothing (TestStepComputePathIsAllocationFree). It
// belongs to one subnet at a time, whose blocks run one after another
// on any goroutine.
type arena struct {
	dim   int
	m     int
	batch data.Batch
	ys    []tensor.Vector // item i's block outputs are ys[i*m:][:m]
	dy    []tensor.Vector // per item: the output gradient, carried down the chain
	tmp   tensor.Vector   // pre-activation scratch for BackwardInto
	grads []*layers.Grads // per block: zeroed before its backward, summed over items in item order
	loss  float32         // the batch's average loss, set by the last block's forward
}

func newArena(dim int) *arena { return &arena{dim: dim, tmp: make(tensor.Vector, dim)} }

// begin sizes the arena for a step of m blocks on batch. The gradient
// sets are the caller's: stepOn owns one per block, a replay lends one
// to each backward.
func (a *arena) begin(batch data.Batch, m int) {
	a.batch, a.m = batch, m
	n := len(batch.Inputs)
	if len(a.ys) < n*m || len(a.dy) < n { // cut from one slab
		slab, vs := make([]float32, (n*m+n)*a.dim), make([]tensor.Vector, n*m+n)
		for i := range vs {
			vs[i] = slab[i*a.dim:][:a.dim:a.dim]
		}
		a.ys, a.dy = vs[:n*m], vs[n*m:]
	}
	for len(a.grads) < m {
		a.grads = append(a.grads, nil)
	}
}

// forward runs block b over every item of the batch. After the last
// block it computes the loss, 0.5·‖y − target‖², and seeds each item's
// output gradient.
func (a *arena) forward(b int, l *layers.Layer) {
	for i := range a.batch.Inputs {
		l.ForwardInto(a.ys[i*a.m+b], a.input(i, b))
	}
	if b < a.m-1 {
		return
	}
	var lossSum float32
	for i, tgt := range a.batch.Targets {
		out, dy := a.ys[i*a.m+b], a.dy[i]
		for j := range out {
			d := out[j] - tgt[j]
			dy[j] = d
			lossSum += float32(0.5 * d * d)
		}
	}
	a.loss = lossSum / float32(len(a.batch.Inputs))
}

// backward runs block b's backward over every item, accumulating into
// grads[b] in item order. dy is consumed before dx is written, so one
// buffer per item carries the output gradient down the whole chain.
func (a *arena) backward(b int, l *layers.Layer) {
	for i, dy := range a.dy[:len(a.batch.Inputs)] {
		l.BackwardInto(dy, a.tmp, a.input(i, b), a.ys[i*a.m+b], dy, a.grads[b])
	}
}

// input is what block b of item i consumes: the batch input or the
// previous block's output.
func (a *arena) input(i, b int) tensor.Vector {
	if b == 0 {
		return a.batch.Inputs[i]
	}
	return a.ys[i*a.m+b-1]
}

// stepOn trains one subnet on batch against the live net, one block
// task after another: forward over blocks 0..m-1, backward over m-1..0,
// then each block's SGD write. It returns the batch's average loss.
func stepOn(cfg Config, net *supernet.Numeric, sub supernet.Subnet, batch data.Batch, a *arena) float32 {
	m := len(sub.Choices)
	a.begin(batch, m)
	for b, c := range sub.Choices {
		a.forward(b, net.At(b, c))
	}
	for b := m - 1; b >= 0; b-- {
		l := net.At(b, sub.Choices[b])
		if a.grads[b] == nil {
			a.grads[b] = l.NewGrads()
		} else {
			a.grads[b].Reset()
		}
		a.backward(b, l)
	}
	for b, c := range sub.Choices {
		net.At(b, c).ApplySGD(a.grads[b], cfg.LR)
	}
	return a.loss
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
