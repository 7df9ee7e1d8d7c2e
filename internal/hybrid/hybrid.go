// Package hybrid implements the first of the paper's envisioned future
// applications (§5.5): the hybrid traverse of multiple search spaces
// simultaneously. NASPipe's runtime is flexible enough to hold any number
// of causal dependency relations, so several spaces' subnet streams can
// interleave through one pipeline.
//
// A Union embeds K same-geometry member spaces into one supernet whose
// choice blocks concatenate the members' candidate menus into disjoint
// bands. Subnets sampled from different members therefore never share a
// layer — their causal dependency graphs are independent — while
// within-member dependencies keep their original structure. Interleaving
// the member streams dilutes the dependency density the CSP scheduler
// faces (consecutive subnets come from different members), which raises
// pipeline utilization beyond what either space achieves alone, at zero
// cost to reproducibility: the engine and trainer treat the union like
// any other space.
package hybrid

import (
	"fmt"

	"naspipe/internal/supernet"
)

// Union is a combined search space with per-member candidate bands.
type Union struct {
	// Space is the combined supernet: member blocks aligned, choices
	// concatenated.
	Space supernet.Space
	// Members are the constituent spaces, in band order.
	Members []supernet.Space
	offsets []int // choice offset of each member's band
}

// NewUnion combines the member spaces. Members must agree on domain and
// block count (the Table 1 NLP spaces all have 48 blocks; the CV spaces
// 32), so no padding blocks are needed and per-subnet partitions stay
// comparable.
func NewUnion(name string, members ...supernet.Space) (*Union, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("hybrid: a union needs at least 2 member spaces, got %d", len(members))
	}
	first := members[0]
	offsets := make([]int, len(members))
	total := 0
	for i, m := range members {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if m.Domain != first.Domain {
			return nil, fmt.Errorf("hybrid: member %s domain %v != %v", m.Name, m.Domain, first.Domain)
		}
		if m.Blocks != first.Blocks {
			return nil, fmt.Errorf("hybrid: member %s has %d blocks, want %d", m.Name, m.Blocks, first.Blocks)
		}
		offsets[i] = total
		total += m.Choices
	}
	return &Union{
		Space: supernet.Space{
			Name:    name,
			Domain:  first.Domain,
			Blocks:  first.Blocks,
			Choices: total,
			Dataset: first.Dataset,
		},
		Members: members,
		offsets: offsets,
	}, nil
}

// Interleave generates a hybrid subnet stream of length n: member streams
// are sampled independently (each with its own labeled seed substream,
// exactly as a solo run would) and interleaved round-robin, then
// renumbered with global sequence IDs. The stream is a pure function of
// (union, seed) — cluster shape never perturbs it.
func (u *Union) Interleave(seed uint64, n int) []supernet.Subnet {
	samplers := make([]*supernet.Sampler, len(u.Members))
	for i, m := range u.Members {
		samplers[i] = supernet.NewSampler(m, seed)
	}
	out := make([]supernet.Subnet, n)
	for i := 0; i < n; i++ {
		member := i % len(u.Members)
		local := samplers[member].Next()
		choices := make([]int, len(local.Choices))
		for b, c := range local.Choices {
			choices[b] = c + u.offsets[member]
		}
		out[i] = supernet.Subnet{Seq: i, Choices: choices}
	}
	return out
}
