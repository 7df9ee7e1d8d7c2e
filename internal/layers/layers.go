// Package layers defines the candidate-layer library of NASPipe-Go.
//
// A supernet choice block holds many candidate layers; NASPipe cares about
// three things per layer: how long its forward and backward passes take on
// a GPU, how long its parameters take to swap between CPU and GPU memory
// over PCIe, and how to actually run it numerically. The paper's Table 5
// profiles eight representative layer kinds (four NLP kinds at input size
// (192, 1024) and four CV kinds at (64, 112, 112)); those measured numbers
// are this package's cost model, which makes the discrete-event simulator's
// timing directly traceable to the paper's testbed.
//
// The numeric implementation is deliberately uniform: every layer computes
// y = tanh(Wx + b) on a small dense matrix. It runs a whole batch at once
// (ForwardBatch, BackwardBatch: one pass over W per four items, on
// tensor's lane layout), and each item's bits are what it alone would
// give. Reproducibility (the property under study) depends on the
// read/write interleaving of parameters, not on the kernel being a
// convolution versus an attention block, so a single auditable kernel
// keeps the numeric plane small while the cost metadata keeps the
// performance plane faithful.
package layers

import (
	"fmt"

	"naspipe/internal/rng"
	"naspipe/internal/tensor"
)

// Kind identifies one of the eight representative layer kinds from the
// paper's Table 5.
type Kind int

// The eight Table 5 layer kinds. NLP kinds profile at input size
// (192, 1024); CV kinds at (64, 112, 112).
const (
	Conv3x1 Kind = iota // NLP: 3x1 convolution
	SepConv7x1
	LightConv5x1
	Attention8Head
	Conv3x3 // CV: 3x3 convolution
	SepConv3x3
	SepConv5x5
	DilConv3x3
	numKinds
)

// Domain is the task family a layer kind belongs to.
type Domain int

// Domains.
const (
	NLP Domain = iota
	CV
)

func (d Domain) String() string {
	if d == NLP {
		return "NLP"
	}
	return "CV"
}

var kindNames = [numKinds]string{
	"Conv 3x1", "Sep Conv 7x1", "Light Conv 5x1", "8 Head Attention",
	"Conv 3x3", "Sep Conv 3x3", "Sep Conv 5x5", "Dil Conv 3x3",
}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Domain returns the task family of the kind.
func (k Kind) Domain() Domain {
	if k <= Attention8Head {
		return NLP
	}
	return CV
}

// PCIeBytesPerMs is the testbed's PCIe 3.0 x16 bandwidth (15760 MB/s)
// expressed in bytes per millisecond. Swap times in Table 5 divided into
// parameter sizes use this constant, so cost profiles and the cluster model
// agree by construction.
const PCIeBytesPerMs = 15760 * 1000 * 1000 / 1000 // 15,760,000 B/ms

// CostProfile carries the per-layer costs the schedulers and the simulator
// reason about. Times are in milliseconds at the profiled input size and a
// reference batch; the engine scales them by batch size.
type CostProfile struct {
	FwdMs      float64 // forward pass compute time
	BwdMs      float64 // backward pass compute time (includes optimizer step)
	SwapMs     float64 // CPU<->GPU parameter copy time over PCIe 3.0 x16
	ParamBytes int64   // parameter size; SwapMs * PCIe bandwidth
}

// profiles holds the measured Table 5 numbers.
var profiles = [numKinds]CostProfile{
	Conv3x1:        {FwdMs: 5.0, BwdMs: 10.0, SwapMs: 1.76},
	SepConv7x1:     {FwdMs: 4.2, BwdMs: 5.7, SwapMs: 0.56},
	LightConv5x1:   {FwdMs: 0.68, BwdMs: 1.4, SwapMs: 0.03},
	Attention8Head: {FwdMs: 7.9, BwdMs: 13.8, SwapMs: 2.07},
	Conv3x3:        {FwdMs: 7.9, BwdMs: 13.8, SwapMs: 4.6},
	SepConv3x3:     {FwdMs: 2.8, BwdMs: 4.0, SwapMs: 0.68},
	SepConv5x5:     {FwdMs: 6.7, BwdMs: 9.9, SwapMs: 2.04},
	DilConv3x3:     {FwdMs: 2.5, BwdMs: 3.4, SwapMs: 0.58},
}

func init() {
	for k := range profiles {
		profiles[k].ParamBytes = int64(profiles[k].SwapMs * PCIeBytesPerMs)
	}
}

// Profile returns the measured cost profile for the kind.
func Profile(k Kind) CostProfile {
	if k < 0 || k >= numKinds {
		panic(fmt.Sprintf("layers: unknown kind %d", int(k)))
	}
	return profiles[k]
}

// Kinds returns all kinds for the domain, in Table 5 order.
func Kinds(d Domain) []Kind {
	if d == NLP {
		return []Kind{Conv3x1, SepConv7x1, LightConv5x1, Attention8Head}
	}
	return []Kind{Conv3x3, SepConv3x3, SepConv5x5, DilConv3x3}
}

// InputSize returns the profiled input shape label for the domain, for
// reporting Table 5.
func InputSize(d Domain) string {
	if d == NLP {
		return "(192, 1024)"
	}
	return "(64, 112, 112)"
}

// Layer is a numeric candidate layer: y = tanh(W·x + b). W is Dim×Dim.
// The layer owns its parameters; callers coordinate concurrent access (in
// NASPipe, the scheduler guarantees exclusive access per the CSP
// discipline, which is the entire point).
type Layer struct {
	Kind Kind
	Dim  int
	W    *tensor.Matrix
	B    tensor.Vector
}

// NewLayer returns a layer with deterministically initialized parameters.
// Initialization is scaled Gaussian (std 1/√Dim), drawn from a stream
// derived from the caller-provided stream, which in turn must be derived
// from the global seed and the layer's identity — never from the GPU count.
func NewLayer(kind Kind, dim int, r *rng.Stream) *Layer {
	l := &Layer{Kind: kind, Dim: dim, W: tensor.NewMatrix(dim, dim), B: make(tensor.Vector, dim)}
	scale := 1.0 / float32(isqrt(dim))
	for i := range l.W.Data {
		l.W.Data[i] = r.NormFloat32() * scale
	}
	for i := range l.B {
		l.B[i] = 0
	}
	return l
}

// isqrt returns √n for init scaling, computed by a fixed number of Newton
// steps in float64 and rounded to float32. Every platform runs the same
// operations in the same order, so the result (and thus every initial
// weight) is bitwise fixed. Twelve steps from n/2 give the same float32
// as math.Sqrt for every n below 334896, far beyond any model dim.
func isqrt(n int) float32 {
	x := float64(n)
	g := x / 2
	if g == 0 {
		return 1
	}
	for i := 0; i < 12; i++ {
		g = (g + x/g) / 2
	}
	return float32(g)
}

// ForwardBatch computes y = tanh(W·x + b) for the n items of a batch
// held in tensor's lane layout (tensor.Lanes items to a group): one pass
// over W per group, then the bias and tanh elementwise, and the dead
// lanes set to 0. Each item's output is bitwise what W·x, then + b, then
// tanh give on that item alone. y must not overlap x.
func (l *Layer) ForwardBatch(y, x tensor.Vector, n int) {
	tensor.MatVecBatch(y, l.W, x, n)
	for g := 0; g < len(y); g += l.Dim * tensor.Lanes {
		yg := y[g : g+l.Dim*tensor.Lanes]
		for r, b := range l.B {
			w := yg[r*tensor.Lanes : (r+1)*tensor.Lanes : (r+1)*tensor.Lanes]
			w[0] += b
			w[1] += b
			w[2] += b
			w[3] += b
		}
	}
	tensor.TanhBatch(y, l.Dim, n)
}

// Grads holds the parameter gradients of one layer, summed over a
// batch's items.
type Grads struct {
	W *tensor.Matrix
	B tensor.Vector
}

// NewGrads allocates zeroed gradients matching the layer's shape.
func (l *Layer) NewGrads() *Grads {
	return &Grads{W: tensor.NewMatrix(l.Dim, l.Dim), B: make(tensor.Vector, l.Dim)}
}

// BackwardBatch is ForwardBatch's backward: given the forward output y
// and the output gradient dy of n items in lane layout, it sets the
// pre-activation gradient dz = dy ⊙ (1 − y²) and, unless dx is nil, the
// input gradient dx = Wᵀ·dz. dx may be dy, which is consumed before dx
// is written; dz must be a buffer of its own. The parameter gradients
// follow from dz and the forward input (Grads.SetBatch).
func (l *Layer) BackwardBatch(dx, dz, dy, y tensor.Vector, n int) {
	tensor.TanhGrad(dz, dy, y)
	if dx != nil {
		tensor.MatTVecBatch(dx, l.W, dz, n)
	}
}

// SetBatch sets g to the parameter gradients of the n items of a batch,
// given their pre-activation gradients dz and forward inputs x in
// lane layout: dW = Σ dz ⊗ x and db = Σ dz, each sum from +0 in item
// order. g's old values are never read.
func (g *Grads) SetBatch(dz, x tensor.Vector, n int) { tensor.OuterBatch(g.W, g.B, dz, x, n) }

// ApplySGD performs the optimizer step W -= lr·gW, b -= lr·gB. This is the
// WRITE access in the paper's causal-dependency model: a later subnet that
// shares this layer must not read W until this call completes.
func (l *Layer) ApplySGD(g *Grads, lr float32) {
	tensor.MatAXPY(l.W, -lr, g.W)
	tensor.AXPY(l.B, -lr, g.B)
}

// Checksum returns a bitwise digest of the layer's parameters.
func (l *Layer) Checksum() uint64 { return l.ChecksumOf(l.W.Checksum()) }

// ChecksumOf returns the layer's Checksum given wsum = l.W.Checksum(),
// for a caller that hashes many layers' weights at once
// (tensor.Checksum4).
func (l *Layer) ChecksumOf(wsum uint64) uint64 {
	return tensor.CombineChecksums([]uint64{wsum, l.B.Checksum()})
}

// Clone returns a deep copy of the layer (used to snapshot parameter
// versions when replaying non-CSP access orders).
func (l *Layer) Clone() *Layer {
	return &Layer{Kind: l.Kind, Dim: l.Dim, W: l.W.Clone(), B: l.B.Clone()}
}
