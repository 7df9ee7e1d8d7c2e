package layers

import (
	"math"
	"testing"
	"testing/quick"

	"naspipe/internal/rng"
	"naspipe/internal/tensor"
)

func TestProfileMatchesTable5(t *testing.T) {
	// Spot-check the measured numbers against the paper's Table 5.
	cases := []struct {
		kind             Kind
		fwd, bwd, swapMs float64
	}{
		{Conv3x1, 5.0, 10.0, 1.76},
		{SepConv7x1, 4.2, 5.7, 0.56},
		{LightConv5x1, 0.68, 1.4, 0.03},
		{Attention8Head, 7.9, 13.8, 2.07},
		{Conv3x3, 7.9, 13.8, 4.6},
		{SepConv3x3, 2.8, 4.0, 0.68},
		{SepConv5x5, 6.7, 9.9, 2.04},
		{DilConv3x3, 2.5, 3.4, 0.58},
	}
	for _, c := range cases {
		p := Profile(c.kind)
		if p.FwdMs != c.fwd || p.BwdMs != c.bwd || p.SwapMs != c.swapMs {
			t.Errorf("%v: profile %+v != table5 %+v", c.kind, p, c)
		}
		wantBytes := int64(c.swapMs * PCIeBytesPerMs)
		if p.ParamBytes != wantBytes {
			t.Errorf("%v: ParamBytes %d != %d", c.kind, p.ParamBytes, wantBytes)
		}
	}
}

func TestProfilePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Profile(Kind(99))
}

func TestKindDomains(t *testing.T) {
	for _, k := range Kinds(NLP) {
		if k.Domain() != NLP {
			t.Errorf("%v reported domain %v", k, k.Domain())
		}
	}
	for _, k := range Kinds(CV) {
		if k.Domain() != CV {
			t.Errorf("%v reported domain %v", k, k.Domain())
		}
	}
	if len(Kinds(NLP)) != 4 || len(Kinds(CV)) != 4 {
		t.Fatal("each domain must expose exactly 4 Table 5 kinds")
	}
}

func TestKindString(t *testing.T) {
	if Conv3x1.String() != "Conv 3x1" {
		t.Fatalf("got %q", Conv3x1.String())
	}
	if Attention8Head.String() != "8 Head Attention" {
		t.Fatalf("got %q", Attention8Head.String())
	}
	if Kind(42).String() != "Kind(42)" {
		t.Fatalf("got %q", Kind(42).String())
	}
}

func TestInputSize(t *testing.T) {
	if InputSize(NLP) != "(192, 1024)" || InputSize(CV) != "(64, 112, 112)" {
		t.Fatal("InputSize must report Table 5 shapes")
	}
}

func TestNewLayerDeterministic(t *testing.T) {
	a := NewLayer(Conv3x1, 8, rng.Labeled(1, "layer-0"))
	b := NewLayer(Conv3x1, 8, rng.Labeled(1, "layer-0"))
	if a.Checksum() != b.Checksum() {
		t.Fatal("same seed produced different layer init")
	}
	c := NewLayer(Conv3x1, 8, rng.Labeled(1, "layer-1"))
	if a.Checksum() == c.Checksum() {
		t.Fatal("different labels produced identical init")
	}
}

// forward runs ForwardBatch on the single item x and returns its output.
func forward(l *Layer, x tensor.Vector) tensor.Vector {
	in, out := make(tensor.Vector, l.Dim*tensor.Lanes), make(tensor.Vector, l.Dim*tensor.Lanes)
	tensor.PackLanes(in, []tensor.Vector{x})
	l.ForwardBatch(out, in, 1)
	return laneItem(out, l.Dim, 0)
}

// backward runs BackwardBatch on the single item (x, y, dy), sets g to
// its gradients, and returns the input gradient.
func backward(l *Layer, x, y, dy tensor.Vector, g *Grads) tensor.Vector {
	bufs := make([]tensor.Vector, 5)
	for k, v := range []tensor.Vector{x, y, dy, nil, nil} {
		bufs[k] = make(tensor.Vector, l.Dim*tensor.Lanes)
		if v != nil {
			tensor.PackLanes(bufs[k], []tensor.Vector{v})
		}
	}
	l.BackwardBatch(bufs[3], bufs[4], bufs[2], bufs[1], 1)
	g.SetBatch(bufs[4], bufs[0], 1)
	return laneItem(bufs[3], l.Dim, 0)
}

// laneItem returns item i of a lane buffer of dim-element items.
func laneItem(buf tensor.Vector, dim, i int) tensor.Vector {
	v := make(tensor.Vector, dim)
	for j := range v {
		v[j] = buf[tensor.LaneAt(dim, i, j)]
	}
	return v
}

// TestBatchEqualsItemByItem pins the batch contract at every batch size
// from 1 to 9 and at dims whose row and column counts leave every tail
// mod 4: each item's forward output and input gradient are bitwise what
// the item alone gives, and the batch's gradients are the single items'
// gradients summed in item order.
func TestBatchEqualsItemByItem(t *testing.T) {
	for _, dim := range []int{1, 3, 5, 8, 12, 13} {
		l := NewLayer(SepConv3x3, dim, rng.Labeled(6, "batch"))
		r := rng.Labeled(6, "data")
		for n := 1; n <= 9; n++ {
			xs, dys := make([]tensor.Vector, n), make([]tensor.Vector, n)
			for i := range xs {
				xs[i], dys[i] = make(tensor.Vector, dim), make(tensor.Vector, dim)
				for j := range xs[i] {
					xs[i][j], dys[i][j] = r.NormFloat32(), r.NormFloat32()
				}
			}
			size := tensor.Groups(n) * tensor.Lanes * dim
			x, y, dy := make(tensor.Vector, size), make(tensor.Vector, size), make(tensor.Vector, size)
			tensor.PackLanes(x, xs)
			tensor.PackLanes(dy, dys)
			l.ForwardBatch(y, x, n)
			ys := make([]tensor.Vector, n)
			for i := range xs {
				ys[i] = forward(l, xs[i])
				if got := laneItem(y, dim, i); !got.EqualBits(ys[i]) {
					t.Fatalf("dim %d batch %d: item %d forward %v, alone %v", dim, n, i, got, ys[i])
				}
			}
			g, dz := l.NewGrads(), make(tensor.Vector, size)
			l.BackwardBatch(dy, dz, dy, y, n)
			g.SetBatch(dz, x, n)
			sum := l.NewGrads()
			for i := range xs {
				gi := l.NewGrads()
				dx := backward(l, xs[i], ys[i], dys[i], gi)
				if got := laneItem(dy, dim, i); !got.EqualBits(dx) {
					t.Fatalf("dim %d batch %d: item %d input gradient %v, alone %v", dim, n, i, got, dx)
				}
				tensor.MatAXPY(sum.W, 1, gi.W)
				tensor.AXPY(sum.B, 1, gi.B)
			}
			if !g.W.Equal(sum.W) || !g.B.EqualBits(sum.B) {
				t.Fatalf("dim %d batch %d: gradients differ from the items' summed in order", dim, n)
			}
		}
	}
}

func TestForwardBounded(t *testing.T) {
	l := NewLayer(Conv3x3, 8, rng.Labeled(2, "l"))
	x := make(tensor.Vector, 8)
	for i := range x {
		x[i] = 10 // large input: tanh must squash
	}
	y := forward(l, x)
	for i, v := range y {
		if v < -1 || v > 1 {
			t.Fatalf("output %d = %v outside tanh range", i, v)
		}
	}
}

func TestBackwardGradientCheck(t *testing.T) {
	// Numeric gradient check of dL/dW against the analytic backward, with
	// loss L = 0.5 Σ (y - target)². Uses float64 finite differences on a
	// float32 layer, so the tolerance is loose but meaningful.
	l := NewLayer(SepConv3x3, 5, rng.Labeled(3, "gc"))
	r := rng.Labeled(3, "data")
	x := make(tensor.Vector, 5)
	target := make(tensor.Vector, 5)
	for i := range x {
		x[i] = r.NormFloat32()
		target[i] = r.NormFloat32()
	}
	forwardLoss := func() float64 {
		y := forward(l, x)
		var loss float64
		for i := range y {
			d := float64(y[i] - target[i])
			loss += 0.5 * d * d
		}
		return loss
	}
	y := forward(l, x)
	dy := make(tensor.Vector, 5)
	for i := range dy {
		dy[i] = y[i] - target[i]
	}
	g := l.NewGrads()
	backward(l, x, y, dy, g)

	const eps = 1e-3
	checks := [][2]int{{0, 0}, {1, 3}, {4, 4}, {2, 1}}
	for _, rc := range checks {
		orig := l.W.At(rc[0], rc[1])
		l.W.Set(rc[0], rc[1], orig+eps)
		up := forwardLoss()
		l.W.Set(rc[0], rc[1], orig-eps)
		down := forwardLoss()
		l.W.Set(rc[0], rc[1], orig)
		numeric := (up - down) / (2 * eps)
		analytic := float64(g.W.At(rc[0], rc[1]))
		if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(analytic)) {
			t.Errorf("dW[%d][%d]: numeric %v analytic %v", rc[0], rc[1], numeric, analytic)
		}
	}
}

func TestApplySGDMovesParams(t *testing.T) {
	l := NewLayer(Conv3x1, 4, rng.Labeled(4, "sgd"))
	before := l.Checksum()
	g := l.NewGrads()
	g.W.Set(0, 0, 1)
	g.B[1] = 1
	l.ApplySGD(g, 0.1)
	if l.Checksum() == before {
		t.Fatal("SGD step did not change parameters")
	}
	// Exact arithmetic: W[0][0] decreased by 0.1, B[1] by 0.1.
	fresh := NewLayer(Conv3x1, 4, rng.Labeled(4, "sgd"))
	if l.W.At(0, 0) != fresh.W.At(0, 0)-0.1 {
		t.Fatalf("W[0][0] = %v want %v", l.W.At(0, 0), fresh.W.At(0, 0)-0.1)
	}
	if l.B[1] != -0.1 {
		t.Fatalf("B[1] = %v want -0.1", l.B[1])
	}
}

func TestCloneIsolation(t *testing.T) {
	l := NewLayer(DilConv3x3, 4, rng.Labeled(5, "clone"))
	c := l.Clone()
	if c.Checksum() != l.Checksum() {
		t.Fatal("clone differs from original")
	}
	g := l.NewGrads()
	g.W.Set(0, 0, 1)
	l.ApplySGD(g, 1)
	if c.Checksum() == l.Checksum() {
		t.Fatal("clone shares storage with original")
	}
}

// Property: a full forward/backward/SGD step is bitwise deterministic as a
// function of (seed, input) — run twice from scratch, compare checksums.
func TestQuickTrainingStepDeterministic(t *testing.T) {
	step := func(seed uint64) uint64 {
		l := NewLayer(Attention8Head, 6, rng.Labeled(seed, "layer"))
		r := rng.Labeled(seed, "x")
		x := make(tensor.Vector, 6)
		for i := range x {
			x[i] = r.NormFloat32()
		}
		y := forward(l, x)
		dy := y.Clone() // pretend target is zero
		g := l.NewGrads()
		backward(l, x, y, dy, g)
		l.ApplySGD(g, 0.05)
		return l.Checksum()
	}
	f := func(seed uint64) bool { return step(seed) == step(seed) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: backward's dx is the true adjoint direction — perturbing the
// input along dx must not decrease the loss to first order (dx is the
// gradient of the loss w.r.t. x, so a small step along -dx reduces loss).
func TestQuickInputGradientDescends(t *testing.T) {
	f := func(seed uint64) bool {
		l := NewLayer(SepConv5x5, 5, rng.Labeled(seed, "layer"))
		r := rng.Labeled(seed, "data")
		x := make(tensor.Vector, 5)
		tgt := make(tensor.Vector, 5)
		for i := range x {
			x[i] = r.NormFloat32()
			tgt[i] = r.NormFloat32()
		}
		loss := func(in tensor.Vector) float64 {
			y := forward(l, in)
			var s float64
			for i := range y {
				d := float64(y[i] - tgt[i])
				s += 0.5 * d * d
			}
			return s
		}
		y := forward(l, x)
		dy := make(tensor.Vector, 5)
		for i := range dy {
			dy[i] = y[i] - tgt[i]
		}
		g := l.NewGrads()
		dx := backward(l, x, y, dy, g)
		norm := float64(tensor.SumSquares(dx))
		if norm < 1e-8 {
			return true // at a critical point; nothing to check
		}
		stepped := x.Clone()
		tensor.AXPY(stepped, -1e-3, dx)
		return loss(stepped) <= loss(x)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForwardBatch16(b *testing.B) {
	l := NewLayer(Conv3x1, 16, rng.Labeled(1, "bench"))
	x, y := make(tensor.Vector, 16*tensor.Lanes), make(tensor.Vector, 16*tensor.Lanes)
	for i := range x {
		x[i] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ForwardBatch(y, x, tensor.Lanes)
	}
}

func TestDimOneLayer(t *testing.T) {
	l := NewLayer(LightConv5x1, 1, rng.Labeled(1, "tiny"))
	y := forward(l, tensor.Vector{0.5})
	if len(y) != 1 || y[0] < -1 || y[0] > 1 {
		t.Fatalf("dim-1 forward broken: %v", y)
	}
	g := l.NewGrads()
	dx := backward(l, tensor.Vector{0.5}, y, tensor.Vector{1}, g)
	if len(dx) != 1 {
		t.Fatal("dim-1 backward broken")
	}
	l.ApplySGD(g, 0.1)
}

func TestNewGradsZeroed(t *testing.T) {
	l := NewLayer(Conv3x1, 4, rng.Labeled(2, "z"))
	g := l.NewGrads()
	for _, v := range g.W.Data {
		if v != 0 {
			t.Fatal("fresh grads not zeroed")
		}
	}
	for _, v := range g.B {
		if v != 0 {
			t.Fatal("fresh bias grads not zeroed")
		}
	}
}
