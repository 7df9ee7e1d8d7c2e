package train

import (
	"math"
	"testing"

	"naspipe/internal/data"
	"naspipe/internal/layers"
	"naspipe/internal/supernet"
	"naspipe/internal/tensor"
)

// stepPerItem is the per-item step the batched arena replaced, kept as
// its oracle: each item's forward through every block on its own
// (W·x, + b, tanh), the loss summed item by item, then per block from
// the last a zeroed gradient that every item's backward (dz, dz ⊗ x,
// + dz, Wᵀ·dz) accumulates into in item order, then each block's SGD.
func stepPerItem(cfg Config, net *supernet.Numeric, sub supernet.Subnet, batch data.Batch) float32 {
	m, dim := len(sub.Choices), cfg.Dim
	ys := make([][]tensor.Vector, len(batch.Inputs)) // item i's block outputs
	for i, x := range batch.Inputs {
		ys[i] = make([]tensor.Vector, m)
		for b, c := range sub.Choices {
			l, y := net.At(b, c), make(tensor.Vector, dim)
			tensor.MatVec(y, l.W, x)
			tensor.AXPY(y, 1, l.B)
			tensor.Tanh(y, y)
			ys[i][b], x = y, y
		}
	}
	var lossSum float32
	dys := make([]tensor.Vector, len(batch.Inputs))
	for i, tgt := range batch.Targets {
		out := ys[i][m-1]
		dys[i] = make(tensor.Vector, dim)
		for j := range out {
			d := out[j] - tgt[j]
			dys[i][j] = d
			lossSum += float32(0.5 * d * d)
		}
	}
	grads := make([]*layers.Grads, m)
	for b := m - 1; b >= 0; b-- {
		l := net.At(b, sub.Choices[b])
		g := l.NewGrads()
		for i, dy := range dys {
			x := batch.Inputs[i]
			if b > 0 {
				x = ys[i][b-1]
			}
			dz := make(tensor.Vector, dim)
			tensor.TanhGrad(dz, dy, ys[i][b])
			tensor.OuterAccum(g.W, dz, x, 1)
			tensor.AXPY(g.B, 1, dz)
			dx := make(tensor.Vector, dim) // Wᵀ·dz, rows in ascending order
			for r, dzr := range dz {
				for c := range dx {
					dx[c] += float32(l.W.Data[r*l.W.Cols+c] * dzr)
				}
			}
			dys[i] = dx
		}
		grads[b] = g
	}
	for b, c := range sub.Choices {
		net.At(b, c).ApplySGD(grads[b], cfg.LR)
	}
	return lossSum / float32(len(batch.Inputs))
}

// TestBatchedStepEqualsPerItemStep holds the arena's batched step to the
// per-item one, bit for bit in every weight and every loss, at dims 1–9,
// 12, 13, 16, 64 and 65 (every row and column tail mod 4) and batch
// sizes 1, 2, 3, 4, 5 and 8 (full, part-dead and two-group batches).
func TestBatchedStepEqualsPerItemStep(t *testing.T) {
	sp := supernet.NLPc3.Scaled(4, 3)
	subs := supernet.Sample(sp, 3, 3)
	for _, dim := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 64, 65} {
		for _, n := range []int{1, 2, 3, 4, 5, 8} {
			cfg := Config{Space: sp, Dim: dim, Seed: 11, BatchSize: n, LR: 0.05, Dataset: data.WNMT}.withDefaults()
			src := data.NewSource(cfg.Dataset, dim, n, cfg.Seed)
			batched, perItem := supernet.BuildNumeric(sp, dim, cfg.Seed), supernet.BuildNumeric(sp, dim, cfg.Seed)
			a := newArena(dim)
			for _, sub := range subs {
				got := stepOn(cfg, batched, sub, src.Batch(sub.Seq), a)
				want := stepPerItem(cfg, perItem, sub, src.Batch(sub.Seq))
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("dim %d batch %d subnet %d: loss %v, per item %v", dim, n, sub.Seq, got, want)
				}
			}
			if got, want := batched.Checksum(), perItem.Checksum(); got != want {
				t.Fatalf("dim %d batch %d: weights %#x, per item %#x", dim, n, got, want)
			}
		}
	}
}
