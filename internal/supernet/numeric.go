package supernet

import (
	"fmt"

	"naspipe/internal/layers"
	"naspipe/internal/memo"
	"naspipe/internal/rng"
	"naspipe/internal/tensor"
)

// Numeric is the trainable instantiation of a (usually scaled-down) space:
// one real layers.Layer per candidate layer. The numeric plane uses it to
// demonstrate bitwise reproducibility — the weights here are the "training
// result" of Definition 1.
type Numeric struct {
	Space Space
	Dim   int
	Layer []*layers.Layer // indexed by LayerID
}

// initKey identifies one initial supernet: its weights are a pure
// function of these three values.
type initKey struct {
	space Space
	dim   int
	seed  uint64
}

// initTemplateLimit bounds initTemplates. A run builds the same initial
// net for its sequential reference and again for every replay or
// resume, so a handful of recent configurations covers the reuse.
const initTemplateLimit = 4

// initTemplates holds pristine initial supernets. A template is never
// handed out: BuildNumeric returns a copy, so no caller can write to one.
var initTemplates = memo.New[initKey, *Numeric](initTemplateLimit)

// BuildNumeric instantiates trainable parameters for every candidate layer
// in the space. Initialization derives from (seed, space name, layer ID)
// only, so two runs with equal seeds start from bitwise-equal supernets
// regardless of cluster shape. The result is a fresh deep copy of a
// memoized template, so the Gaussian draws happen once per configuration.
func BuildNumeric(space Space, dim int, seed uint64) *Numeric {
	if err := space.Validate(); err != nil {
		panic(err)
	}
	if dim <= 0 {
		panic(fmt.Sprintf("supernet: invalid numeric dim %d", dim))
	}
	tmpl := initTemplates.Get(initKey{space: space, dim: dim, seed: seed}, func() *Numeric {
		return buildNumeric(space, dim, seed)
	})
	return tmpl.Clone()
}

// buildNumeric draws a supernet's initial weights; BuildNumeric's miss path.
func buildNumeric(space Space, dim int, seed uint64) *Numeric {
	kinds := layers.Kinds(space.Domain)
	n := &Numeric{Space: space, Dim: dim, Layer: make([]*layers.Layer, space.NumLayers())}
	for b := 0; b < space.Blocks; b++ {
		for c := 0; c < space.Choices; c++ {
			id := space.ID(b, c)
			kind := kinds[c%len(kinds)]
			r := rng.Labeled(seed, fmt.Sprintf("init/%s/%d", space.Name, int(id)))
			n.Layer[id] = layers.NewLayer(kind, dim, r)
		}
	}
	return n
}

// At returns the trainable layer for (block, choice).
func (n *Numeric) At(block, choice int) *layers.Layer {
	return n.Layer[n.Space.ID(block, choice)]
}

// Checksum returns a single bitwise digest over every parameter of every
// candidate layer, in layer-ID order. Equal checksums mean bitwise-equal
// supernets (Definition 1's equality test). Each layer's digest is its
// own Checksum, but the weights of four layers at a time are hashed in
// four overlapping chains (tensor.Checksum4).
func (n *Numeric) Checksum() uint64 {
	sums := make([]uint64, len(n.Layer))
	i := 0
	for ; i+4 <= len(n.Layer); i += 4 {
		l := n.Layer[i : i+4 : i+4]
		w := tensor.Checksum4(l[0].W, l[1].W, l[2].W, l[3].W)
		for k, wsum := range w {
			sums[i+k] = l[k].ChecksumOf(wsum)
		}
	}
	for ; i < len(n.Layer); i++ {
		sums[i] = n.Layer[i].Checksum()
	}
	return tensor.CombineChecksums(sums)
}

// Clone deep-copies the numeric supernet (BuildNumeric's copy out of its
// pristine template). All parameters of the copy share one backing slab,
// so a clone costs a handful of allocations whatever the layer count.
// Each layer's slices are capped at their own length: no append can
// spill into a neighbour.
func (n *Numeric) Clone() *Numeric {
	floats := 0
	for _, l := range n.Layer {
		floats += len(l.W.Data) + len(l.B)
	}
	slab := make([]float32, floats)
	ls := make([]layers.Layer, len(n.Layer))
	ws := make([]tensor.Matrix, len(n.Layer))
	out := &Numeric{Space: n.Space, Dim: n.Dim, Layer: make([]*layers.Layer, len(n.Layer))}
	take := func(src []float32) []float32 {
		dst := slab[:len(src):len(src)]
		copy(dst, src)
		slab = slab[len(src):]
		return dst
	}
	for i, l := range n.Layer {
		ws[i] = tensor.Matrix{Rows: l.W.Rows, Cols: l.W.Cols, Data: take(l.W.Data)}
		ls[i] = layers.Layer{Kind: l.Kind, Dim: l.Dim, W: &ws[i], B: take(l.B)}
		out.Layer[i] = &ls[i]
	}
	return out
}
