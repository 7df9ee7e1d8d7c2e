// Package data provides deterministic synthetic datasets standing in for
// the paper's WNMT (WMT'14 En-De) and ImageNet workloads.
//
// The datasets' role in the paper is to supply gradients; reproducibility
// and scheduling behaviour depend on *which* batch each subnet trains on
// (fixed by step index) rather than on the data's semantics. Each source
// therefore produces batches as a pure function of (dataset, seed, step):
// the same step always yields bitwise-identical tensors, and the train /
// validation split is disjoint by construction (validation uses a separate
// label substream).
package data

import (
	"fmt"

	"naspipe/internal/memo"
	"naspipe/internal/rng"
	"naspipe/internal/tensor"
)

// Kind selects a synthetic dataset family.
type Kind int

// Dataset kinds.
const (
	// WNMT mimics a translation corpus: inputs are token-embedding-like
	// vectors drawn from a fixed finite vocabulary of embeddings, targets
	// are the embeddings of a permuted "translation".
	WNMT Kind = iota
	// ImageNet mimics natural images: inputs are smooth (low-frequency)
	// vectors, targets encode one of 1000 classes as a scaled one-hot-ish
	// pattern.
	ImageNet
)

func (k Kind) String() string {
	if k == WNMT {
		return "WNMT"
	}
	return "ImageNet"
}

// KindByName resolves the Table 1 dataset names.
func KindByName(name string) (Kind, error) {
	switch name {
	case "WNMT":
		return WNMT, nil
	case "ImageNet":
		return ImageNet, nil
	}
	return 0, fmt.Errorf("data: unknown dataset %q", name)
}

// Batch is one training step's input: item i maps Inputs[i] -> Targets[i].
type Batch struct {
	Step    int
	Inputs  []tensor.Vector
	Targets []tensor.Vector
}

// Source generates deterministic batches for one dataset configuration.
type Source struct {
	kind      Kind
	dim       int
	batchSize int
	seed      uint64
	vocab     []tensor.Vector // WNMT only: fixed embedding table
}

// vocabSize is the synthetic WNMT vocabulary size. Small enough that
// token reuse (and thus structure in the data) is common.
const vocabSize = 512

// numClasses mirrors ImageNet's 1000 classes.
const numClasses = 1000

// vocabKey identifies a WNMT embedding table. The table is a pure
// function of (dim, seed), so it is built once and shared; regenerating
// it costs thousands of Gaussian draws and used to dominate short-lived
// sources (e.g. one per training step on the explorer path).
type vocabKey struct {
	dim  int
	seed uint64
}

// vocabCacheLimit bounds vocabCache: a long-lived process that trains
// many (dim, seed) configurations keeps only the most recent few.
const vocabCacheLimit = 4

// vocabCache memoizes immutable WNMT vocabulary tables. Entries are never
// mutated after insertion: wnmtItem clones embeddings before writing.
var vocabCache = memo.New[vocabKey, []tensor.Vector](vocabCacheLimit)

func wnmtVocab(dim int, seed uint64) []tensor.Vector {
	return vocabCache.Get(vocabKey{dim: dim, seed: seed}, func() []tensor.Vector {
		return buildVocab(dim, seed)
	})
}

func buildVocab(dim int, seed uint64) []tensor.Vector {
	r := rng.Labeled(seed, "wnmt/vocab")
	slab := make([]float32, vocabSize*dim)
	for i := range slab {
		slab[i] = r.NormFloat32() * 0.5
	}
	vocab := make([]tensor.Vector, vocabSize)
	for i := range vocab {
		vocab[i] = slab[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return vocab
}

// NewSource builds a source. dim is the model dimension of the numeric
// plane; batchSize the items per step.
func NewSource(kind Kind, dim, batchSize int, seed uint64) *Source {
	if dim <= 0 || batchSize <= 0 {
		panic(fmt.Sprintf("data: invalid source config dim=%d batch=%d", dim, batchSize))
	}
	s := &Source{kind: kind, dim: dim, batchSize: batchSize, seed: seed}
	if kind == WNMT {
		s.vocab = wnmtVocab(dim, seed)
	}
	return s
}

// Kind returns the dataset family.
func (s *Source) Kind() Kind { return s.kind }

// BatchSize returns the configured items per batch.
func (s *Source) BatchSize() int { return s.batchSize }

// Batch returns the training batch for a step. Pure in (source config,
// step).
func (s *Source) Batch(step int) Batch {
	return s.generate("train", step)
}

// ValidationBatch returns the validation batch for an index, disjoint from
// every training batch by substream separation.
func (s *Source) ValidationBatch(idx int) Batch {
	return s.generate("valid", idx)
}

func (s *Source) generate(split string, step int) Batch {
	r := rng.Labeled(s.seed, fmt.Sprintf("%v/%s/%d", s.kind, split, step))
	b := Batch{
		Step:    step,
		Inputs:  make([]tensor.Vector, s.batchSize),
		Targets: make([]tensor.Vector, s.batchSize),
	}
	for i := 0; i < s.batchSize; i++ {
		switch s.kind {
		case WNMT:
			b.Inputs[i], b.Targets[i] = s.wnmtItem(r)
		case ImageNet:
			b.Inputs[i], b.Targets[i] = s.imageItem(r)
		default:
			panic("data: unknown kind")
		}
	}
	return b
}

// wnmtItem draws a source token embedding and targets a deterministic
// companion token (a fixed permutation of the vocabulary), modelling the
// learnable token->token mapping of translation.
func (s *Source) wnmtItem(r *rng.Stream) (in, tgt tensor.Vector) {
	tok := r.Intn(vocabSize)
	// Companion token: multiplicative shuffle (odd multiplier => bijection
	// on the vocabulary ring).
	comp := (tok*37 + 11) % vocabSize
	in = s.vocab[tok].Clone()
	// Mild per-occurrence noise models context variation.
	for j := range in {
		in[j] += r.NormFloat32() * 0.05
	}
	tgt = make(tensor.Vector, s.dim)
	copy(tgt, s.vocab[comp])
	// Squash targets into tanh range so the loss is achievable.
	tensor.Tanh(tgt, tgt)
	return in, tgt
}

// imageItem synthesizes a smooth input whose low-frequency content encodes
// the class, plus a class-derived target pattern in tanh range.
func (s *Source) imageItem(r *rng.Stream) (in, tgt tensor.Vector) {
	class := r.Intn(numClasses)
	cr := rng.Labeled(s.seed, fmt.Sprintf("imagenet/class/%d", class))
	base := make(tensor.Vector, s.dim)
	for j := range base {
		base[j] = cr.NormFloat32() * 0.6
	}
	in = make(tensor.Vector, s.dim)
	// Smooth the class prototype with a 3-tap average and add noise.
	for j := range in {
		lo, hi := j-1, j+1
		if lo < 0 {
			lo = 0
		}
		if hi >= s.dim {
			hi = s.dim - 1
		}
		in[j] = (base[lo]+base[j]+base[hi])/3 + r.NormFloat32()*0.1
	}
	tgt = make(tensor.Vector, s.dim)
	for j := range tgt {
		// Class signature pattern, bounded.
		v := float32((class>>(j%10))&1)*2 - 1
		tgt[j] = v * 0.5
	}
	return in, tgt
}
