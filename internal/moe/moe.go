// Package moe models the paper's second envisioned future application
// (§5.5): supernet adoption beyond NAS — dynamic slimmable networks and
// mixture-of-experts (MoE) models.
//
// What distinguishes those workloads from NAS supernets is the *routing
// distribution*. SPOS samples candidate layers uniformly; an MoE gate (or
// a dynamic network's input-dependent selector) routes traffic with a
// popularity skew — hot experts are activated by many consecutive steps,
// which densifies the causal dependency graph the CSP scheduler must
// resolve. This package generates such streams deterministically (a
// truncated Zipf over each block's experts, with a per-block deterministic
// popularity ranking) so the pipeline's behaviour under dynamic-model
// routing can be studied with the same engine, trainer, and
// reproducibility checks as NAS workloads.
package moe

import (
	"fmt"
	"math"

	"naspipe/internal/rng"
	"naspipe/internal/supernet"
)

// StreamConfig parameterizes an MoE-style routed subnet stream.
type StreamConfig struct {
	Space supernet.Space
	Seed  uint64
	// Skew is the Zipf exponent of expert popularity: 0 degenerates to
	// SPOS uniform sampling; 1.0 is a typical MoE routing skew; larger
	// values concentrate traffic on few hot experts.
	Skew float64
}

// Validate checks the configuration.
func (c StreamConfig) Validate() error {
	if err := c.Space.Validate(); err != nil {
		return err
	}
	if c.Skew < 0 {
		return fmt.Errorf("moe: negative skew %f", c.Skew)
	}
	return nil
}

// Stream generates n routed steps. Each step activates one expert per
// block, drawn from the block's popularity distribution; the popularity
// *ranking* is itself a deterministic per-block permutation so hot
// experts differ across blocks (as gate initializations do). The stream
// is a pure function of (config, n).
func Stream(c StreamConfig, n int) ([]supernet.Subnet, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sp := c.Space
	// Per-block cumulative Zipf weights over a deterministic expert
	// ranking.
	cum := make([][]float64, sp.Blocks)
	rank := make([][]int, sp.Blocks)
	for b := 0; b < sp.Blocks; b++ {
		r := rng.Labeled(c.Seed, fmt.Sprintf("moe/rank/%s/%d", sp.Name, b))
		rank[b] = r.Perm(sp.Choices)
		weights := make([]float64, sp.Choices)
		var total float64
		for i := range weights {
			weights[i] = 1 / math.Pow(float64(i+1), c.Skew)
			total += weights[i]
		}
		cum[b] = make([]float64, sp.Choices)
		acc := 0.0
		for i, w := range weights {
			acc += w / total
			cum[b][i] = acc
		}
	}
	route := rng.Labeled(c.Seed, "moe/route/"+sp.Name)
	out := make([]supernet.Subnet, n)
	for i := 0; i < n; i++ {
		choices := make([]int, sp.Blocks)
		for b := 0; b < sp.Blocks; b++ {
			u := route.Float64()
			// Inverse CDF by linear scan: Choices is small enough (<=96)
			// that this stays cheap and branch-predictable.
			idx := len(cum[b]) - 1
			for j, cv := range cum[b] {
				if u < cv {
					idx = j
					break
				}
			}
			choices[b] = rank[b][idx]
		}
		out[i] = supernet.Subnet{Seq: i, Choices: choices}
	}
	return out, nil
}

// DependencyRate measures, over a routed stream, the fraction of
// consecutive step pairs that share at least one expert — the quantity
// that grows with routing skew and stresses the CSP scheduler.
func DependencyRate(subs []supernet.Subnet) float64 {
	if len(subs) < 2 {
		return 0
	}
	dep := 0
	for i := 1; i < len(subs); i++ {
		if supernet.Shares(subs[i-1], subs[i]) {
			dep++
		}
	}
	return float64(dep) / float64(len(subs)-1)
}
