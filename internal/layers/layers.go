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
// y = tanh(Wx + b) on a small dense matrix. Reproducibility (the property
// under study) depends on the read/write interleaving of parameters, not on
// the kernel being a convolution versus an attention block, so a single
// auditable kernel keeps the numeric plane small while the cost metadata
// keeps the performance plane faithful.
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

// Forward computes y = tanh(W·x + b) and returns y. x is not modified.
func (l *Layer) Forward(x tensor.Vector) tensor.Vector {
	y := make(tensor.Vector, l.Dim)
	l.ForwardInto(y, x)
	return y
}

// ForwardInto computes dst = tanh(W·x + b) using a caller-provided output
// buffer — the allocation-free variant the training arena uses. dst must
// not alias x.
func (l *Layer) ForwardInto(dst, x tensor.Vector) {
	tensor.MatVec(dst, l.W, x)
	tensor.AXPY(dst, 1, l.B)
	tensor.Tanh(dst, dst)
}

// Grads holds the parameter gradients of one layer for one batch item.
type Grads struct {
	W *tensor.Matrix
	B tensor.Vector
}

// NewGrads allocates zeroed gradients matching the layer's shape.
func (l *Layer) NewGrads() *Grads {
	return &Grads{W: tensor.NewMatrix(l.Dim, l.Dim), B: make(tensor.Vector, l.Dim)}
}

// Reset zeroes the gradients in place so a pooled Grads can be reused.
func (g *Grads) Reset() {
	g.W.Zero()
	for i := range g.B {
		g.B[i] = 0
	}
}

// Backward computes the input gradient dx and accumulates parameter
// gradients into g, given the forward input x, the saved activation y
// (the forward output), and the output gradient dy.
func (l *Layer) Backward(x, y, dy tensor.Vector, g *Grads) tensor.Vector {
	dz := make(tensor.Vector, l.Dim)
	dx := make(tensor.Vector, l.Dim)
	l.BackwardInto(dx, dz, x, y, dy, g)
	return dx
}

// BackwardInto is Backward with caller-provided buffers: dx receives the
// input gradient and dz is pre-activation scratch. dx may alias dy (dy is
// fully consumed before dx is written), but dx and dz must be distinct.
func (l *Layer) BackwardInto(dx, dz, x, y, dy tensor.Vector, g *Grads) {
	// Pre-activation gradient: dz = dy ⊙ (1 - y²).
	tensor.TanhGrad(dz, dy, y)
	// dW += dz ⊗ x; db += dz; dx = Wᵀ dz.
	tensor.OuterAccum(g.W, dz, x, 1)
	tensor.AXPY(g.B, 1, dz)
	tensor.MatTVec(dx, l.W, dz)
}

// ApplySGD performs the optimizer step W -= lr·gW, b -= lr·gB. This is the
// WRITE access in the paper's causal-dependency model: a later subnet that
// shares this layer must not read W until this call completes.
func (l *Layer) ApplySGD(g *Grads, lr float32) {
	tensor.MatAXPY(l.W, -lr, g.W)
	tensor.AXPY(l.B, -lr, g.B)
}

// Checksum returns a bitwise digest of the layer's parameters.
func (l *Layer) Checksum() uint64 {
	return tensor.CombineChecksums([]uint64{l.W.Checksum(), l.B.Checksum()})
}

// Clone returns a deep copy of the layer (used to snapshot parameter
// versions when replaying non-CSP access orders).
func (l *Layer) Clone() *Layer {
	return &Layer{Kind: l.Kind, Dim: l.Dim, W: l.W.Clone(), B: l.B.Clone()}
}
