package train

import (
	"math"
	"sort"

	"naspipe/internal/data"
	"naspipe/internal/layers"
	"naspipe/internal/supernet"
	"naspipe/internal/tensor"
)

// Evaluate returns a subnet's average loss over nBatches validation
// batches of the trained supernet, without updating parameters. It runs
// the training step's batched forward; each item's loss is summed on
// its own, then the items' losses in float64.
func Evaluate(cfg Config, net *supernet.Numeric, sub supernet.Subnet, nBatches int) float64 {
	cfg = cfg.withDefaults()
	src := data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed)
	a, m := newArena(cfg.Dim), len(sub.Choices)
	var total float64
	var count int
	for nb := 0; nb < nBatches; nb++ {
		batch := src.ValidationBatch(nb)
		a.begin(batch, m)
		for b, c := range sub.Choices {
			a.forward(b, net.At(b, c))
		}
		out := a.buf(m)
		for i, tgt := range batch.Targets {
			var loss float32
			for j := range cfg.Dim {
				d := out[tensor.LaneAt(cfg.Dim, i, j)] - tgt[j]
				loss += float32(0.5 * d * d)
			}
			total += float64(loss)
			count++
		}
	}
	return total / float64(count)
}

// Score converts a validation loss into the paper's reporting units: a
// BLEU-like score for NLP tasks and a top-5-accuracy-like percentage for
// CV tasks. Both are documented monotone proxies — the absolute BLEU of
// a real Evolved Transformer is not reproducible without the real stack
// (DESIGN.md §6), but relative orderings and exact repeatability are the
// properties under test, and both survive any fixed monotone map.
func Score(d layers.Domain, valLoss float64) float64 {
	if d == layers.NLP {
		// BLEU-like: ~22 at low loss, decaying with loss.
		return 25 * math.Exp(-valLoss/2)
	}
	// Top-5-like percentage: approaches ~90 at low loss.
	return 90 / (1 + float64(valLoss/2))
}

// BestSubnetScore evaluates candidate subnets on the trained supernet and
// returns the best score — the "search accuracy" column of Table 3 when
// the candidates come from the exploration algorithm.
func BestSubnetScore(cfg Config, net *supernet.Numeric, candidates []supernet.Subnet, nBatches int) (best supernet.Subnet, score float64) {
	type scored struct {
		sub   supernet.Subnet
		score float64
	}
	out := make([]scored, len(candidates))
	for i, sub := range candidates {
		loss := Evaluate(cfg, net, sub, nBatches)
		out[i] = scored{sub, Score(cfg.Space.Domain, loss)}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].score > out[j].score })
	if len(out) == 0 {
		return supernet.Subnet{}, 0
	}
	return out[0].sub, out[0].score
}

// LossesBitwiseEqual reports whether two loss series are bitwise equal —
// the artifact's experiment 1 criterion ("all 500 training steps outputs
// in full precision floating point matches between settings").
func LossesBitwiseEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	return tensor.Vector(a).EqualBits(tensor.Vector(b))
}
