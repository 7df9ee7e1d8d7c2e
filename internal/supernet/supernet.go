// Package supernet models NAS supernets: the search space geometry, the
// candidate-layer metadata, subnets, and the SPOS uniform sampler that
// generates the ordered subnet stream.
//
// Following the paper's §3 preliminaries, a supernet is a sequence of m
// choice blocks b_0..b_m, each holding n candidate layers; a subnet is an
// m-sized list with one layer chosen per block, and subnets are generated
// by per-choice-block uniform sampling (SPOS), the representative method in
// existing supernet practice. The subnet stream's order — its sequence IDs
// — defines the causal dependencies the CSP scheduler must preserve.
package supernet

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"naspipe/internal/layers"
	"naspipe/internal/rng"
)

// LayerID densely identifies one candidate layer within a supernet:
// block*ChoicesPerBlock + choice. IDs are only meaningful relative to their
// space.
type LayerID int

// Space describes a search space: the supernet geometry and its dataset.
// The seven canonical spaces reproduce the paper's Table 1.
type Space struct {
	Name    string
	Domain  layers.Domain
	Blocks  int    // number of choice blocks (m)
	Choices int    // candidate layers per block (n)
	Dataset string // dataset label, reporting only
}

// Validate reports whether the space is well formed.
func (s Space) Validate() error {
	if s.Blocks <= 0 || s.Choices <= 0 {
		return fmt.Errorf("supernet: space %q has invalid geometry %dx%d", s.Name, s.Blocks, s.Choices)
	}
	return nil
}

// NumLayers returns the total number of candidate layers in the supernet.
func (s Space) NumLayers() int { return s.Blocks * s.Choices }

// ID maps (block, choice) to the dense layer ID.
func (s Space) ID(block, choice int) LayerID {
	if block < 0 || block >= s.Blocks || choice < 0 || choice >= s.Choices {
		panic(fmt.Sprintf("supernet: layer (%d,%d) out of range for %s", block, choice, s.Name))
	}
	return LayerID(block*s.Choices + choice)
}

// BlockChoice inverts ID.
func (s Space) BlockChoice(id LayerID) (block, choice int) {
	return int(id) / s.Choices, int(id) % s.Choices
}

// Scaled returns a copy of the space with the given geometry, used by the
// numeric plane to train real (tiny) parameters while keeping the space's
// identity for reporting.
func (s Space) Scaled(blocks, choices int) Space {
	out := s
	out.Blocks = blocks
	out.Choices = choices
	out.Name = fmt.Sprintf("%s[%dx%d]", s.Name, blocks, choices)
	return out
}

// The paper's Table 1 search spaces. NLP spaces use the Evolved
// Transformer layer kinds, CV spaces AmoebaNet kinds (both via the Table 5
// profiles).
var (
	NLPc0 = Space{Name: "NLP.c0", Domain: layers.NLP, Blocks: 48, Choices: 96, Dataset: "WNMT"}
	NLPc1 = Space{Name: "NLP.c1", Domain: layers.NLP, Blocks: 48, Choices: 72, Dataset: "WNMT"}
	NLPc2 = Space{Name: "NLP.c2", Domain: layers.NLP, Blocks: 48, Choices: 48, Dataset: "WNMT"}
	NLPc3 = Space{Name: "NLP.c3", Domain: layers.NLP, Blocks: 48, Choices: 24, Dataset: "WNMT"}
	CVc1  = Space{Name: "CV.c1", Domain: layers.CV, Blocks: 32, Choices: 48, Dataset: "ImageNet"}
	CVc2  = Space{Name: "CV.c2", Domain: layers.CV, Blocks: 32, Choices: 24, Dataset: "ImageNet"}
	CVc3  = Space{Name: "CV.c3", Domain: layers.CV, Blocks: 32, Choices: 12, Dataset: "ImageNet"}
)

// Spaces lists the Table 1 spaces in the paper's order.
func Spaces() []Space {
	return []Space{NLPc0, NLPc1, NLPc2, NLPc3, CVc1, CVc2, CVc3}
}

// SpaceByName resolves a Table 1 space by its paper name.
func SpaceByName(name string) (Space, error) {
	for _, s := range Spaces() {
		if s.Name == name {
			return s, nil
		}
	}
	return Space{}, fmt.Errorf("supernet: unknown space %q", name)
}

// LayerMeta is the scheduler- and simulator-facing description of one
// candidate layer: identity plus cost profile. Costs carry a deterministic
// per-layer jitter (±15%) around the Table 5 kind profile so that balanced
// partitioning is a real optimization problem rather than a uniform split.
type LayerMeta struct {
	ID         LayerID
	Block      int
	Choice     int
	Kind       layers.Kind
	FwdMs      float64
	BwdMs      float64
	SwapMs     float64
	ParamBytes int64
}

// CostMs returns the compute cost of the given pass.
func (m LayerMeta) CostMs(backward bool) float64 {
	if backward {
		return m.BwdMs
	}
	return m.FwdMs
}

// jitter returns a deterministic multiplier in [0.85, 1.15] for the layer.
func jitter(spaceName string, block, choice int) float64 {
	// The label is "name/block/choice", as fmt's "%s/%d/%d" renders it.
	var buf [64]byte
	label := append(buf[:0], spaceName...)
	label = append(label, '/')
	label = strconv.AppendInt(label, int64(block), 10)
	label = append(label, '/')
	label = strconv.AppendInt(label, int64(choice), 10)
	h := fnv.New64a()
	h.Write(label)
	u := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return 0.85 + float64(0.30*u)
}

// Supernet is the metadata instantiation of a space: one LayerMeta per
// candidate layer. It carries no numeric parameters; see Numeric for the
// trainable instantiation.
type Supernet struct {
	Space Space
	Meta  []LayerMeta // indexed by LayerID
}

// Build instantiates the metadata supernet for a space. Layer kinds cycle
// through the domain's Table 5 kinds by choice index, so every block offers
// every kind (as in SPOS-style spaces where each block carries the same
// candidate menu).
func Build(space Space) *Supernet {
	if err := space.Validate(); err != nil {
		panic(err)
	}
	kinds := layers.Kinds(space.Domain)
	meta := make([]LayerMeta, space.NumLayers())
	for b := 0; b < space.Blocks; b++ {
		for c := 0; c < space.Choices; c++ {
			id := space.ID(b, c)
			kind := kinds[c%len(kinds)]
			p := layers.Profile(kind)
			j := jitter(space.Name, b, c)
			meta[id] = LayerMeta{
				ID:         id,
				Block:      b,
				Choice:     c,
				Kind:       kind,
				FwdMs:      p.FwdMs * j,
				BwdMs:      p.BwdMs * j,
				SwapMs:     p.SwapMs * j,
				ParamBytes: int64(float64(p.ParamBytes) * j),
			}
		}
	}
	return &Supernet{Space: space, Meta: meta}
}

// Layer returns the metadata for (block, choice).
func (s *Supernet) Layer(block, choice int) LayerMeta {
	return s.Meta[s.Space.ID(block, choice)]
}

// TotalParamBytes returns the parameter size of the whole supernet — the
// quantity that exceeds GPU memory for large spaces and motivates context
// switching (paper Table 2 "P.S." for GPipe/PipeDream).
func (s *Supernet) TotalParamBytes() int64 {
	var total int64
	for _, m := range s.Meta {
		total += m.ParamBytes
	}
	return total
}

// Subnet is one sampled architecture: sequence ID in the exploration order
// plus one choice per block.
type Subnet struct {
	Seq     int
	Choices []int
}

// Clone returns a deep copy of the subnet.
func (sn Subnet) Clone() Subnet {
	c := make([]int, len(sn.Choices))
	copy(c, sn.Choices)
	return Subnet{Seq: sn.Seq, Choices: c}
}

// LayerIDs returns the dense IDs of the subnet's chosen layers, in block
// order.
func (sn Subnet) LayerIDs(space Space) []LayerID {
	ids := make([]LayerID, len(sn.Choices))
	for b, c := range sn.Choices {
		ids[b] = space.ID(b, c)
	}
	return ids
}

// Shares reports whether two subnets select the same candidate layer in
// any block — the condition that creates a causal dependency between their
// executions (§2.1).
func Shares(a, b Subnet) bool {
	n := len(a.Choices)
	if len(b.Choices) < n {
		n = len(b.Choices)
	}
	for i := 0; i < n; i++ {
		if a.Choices[i] == b.Choices[i] {
			return true
		}
	}
	return false
}

// Sampler generates the ordered subnet stream by SPOS per-block uniform
// sampling. The stream is a pure function of (space, seed): the GPU count,
// the scheduling policy, and wall-clock time never influence it, which is a
// precondition for Definition 1 reproducibility.
type Sampler struct {
	space Space
	r     *rng.Stream
	next  int
}

// NewSampler returns a sampler for the space under the given global seed.
func NewSampler(space Space, seed uint64) *Sampler {
	return &Sampler{
		space: space,
		r:     rng.Labeled(seed, "spos/"+space.Name),
	}
}

// Next samples the next subnet in exploration order.
func (s *Sampler) Next() Subnet { return s.nextInto(make([]int, s.space.Blocks)) }

// nextInto is Next with the choices written into the given slice, one
// entry per block.
func (s *Sampler) nextInto(choices []int) Subnet {
	for b := range choices {
		choices[b] = s.r.Intn(s.space.Choices)
	}
	sn := Subnet{Seq: s.next, Choices: choices}
	s.next++
	return sn
}

// Sample returns the first n subnets of the stream.
func Sample(space Space, seed uint64, n int) []Subnet {
	s := NewSampler(space, seed)
	out := make([]Subnet, n)
	m := space.Blocks
	slab := make([]int, n*m) // every subnet's choices, one row each
	for i := range out {
		out[i] = s.nextInto(slab[i*m : (i+1)*m : (i+1)*m])
	}
	return out
}
