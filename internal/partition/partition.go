// Package partition computes pipeline partitions of subnets across GPUs.
//
// NASPipe partitions every subnet into D contiguous stages with roughly
// equal execution time, according to pre-profiled statistics of each layer
// (§3.2). Because each subnet selects different layers, its balanced
// partition boundary generally differs from the supernet's static block
// partition; NASPipe resolves this with layer mirroring (§4.2) rather than
// operator migration. Baselines that lack mirroring (VPipe, the
// w/o-mirroring ablation) run every subnet on the static partition and pay
// the imbalance.
package partition

import (
	"fmt"

	"naspipe/internal/supernet"
)

// Partition assigns m contiguous blocks to D stages. Stage k owns blocks
// [Bounds[k], Bounds[k+1]); Bounds has length D+1 with Bounds[0]=0 and
// Bounds[D]=m. Empty stages are legal when D exceeds m.
type Partition struct {
	D      int
	Bounds []int
}

// Validate checks structural invariants against a block count m.
func (p Partition) Validate(m int) error {
	if p.D <= 0 {
		return fmt.Errorf("partition: non-positive stage count %d", p.D)
	}
	if len(p.Bounds) != p.D+1 {
		return fmt.Errorf("partition: bounds length %d, want %d", len(p.Bounds), p.D+1)
	}
	if p.Bounds[0] != 0 || p.Bounds[p.D] != m {
		return fmt.Errorf("partition: bounds must span [0,%d], got [%d,%d]", m, p.Bounds[0], p.Bounds[p.D])
	}
	for k := 0; k < p.D; k++ {
		if p.Bounds[k] > p.Bounds[k+1] {
			return fmt.Errorf("partition: bounds not monotone at stage %d", k)
		}
	}
	return nil
}

// StageOf returns the stage owning the block.
func (p Partition) StageOf(block int) int {
	for k := 0; k < p.D; k++ {
		if block >= p.Bounds[k] && block < p.Bounds[k+1] {
			return k
		}
	}
	panic(fmt.Sprintf("partition: block %d outside bounds %v", block, p.Bounds))
}

// Blocks returns the half-open block range [lo, hi) of a stage.
func (p Partition) Blocks(stage int) (lo, hi int) {
	return p.Bounds[stage], p.Bounds[stage+1]
}

// StageCosts sums per-block costs within each stage.
func StageCosts(costs []float64, p Partition) []float64 {
	out := make([]float64, p.D)
	for k := 0; k < p.D; k++ {
		for b := p.Bounds[k]; b < p.Bounds[k+1]; b++ {
			out[k] += costs[b]
		}
	}
	return out
}

// MaxStageCost returns the bottleneck stage cost — the pipeline's steady
// state step time.
func MaxStageCost(costs []float64, p Partition) float64 {
	var max float64
	for _, c := range StageCosts(costs, p) {
		if c > max {
			max = c
		}
	}
	return max
}

// Balanced computes the contiguous D-partition of the given non-negative
// per-block costs minimizing the maximum stage cost, by dynamic
// programming. Ties are broken toward the smallest boundary index, so the
// result is a pure function of (costs, d).
func Balanced(costs []float64, d int) Partition {
	m := len(costs)
	if d <= 0 {
		panic("partition: non-positive stage count")
	}
	if m == 0 {
		b := make([]int, d+1)
		return Partition{D: d, Bounds: b}
	}
	// prefix[i] = sum(costs[0:i]).
	prefix := make([]float64, m+1)
	for i, c := range costs {
		prefix[i+1] = prefix[i] + c
	}

	// dp[k*w+i]: minimal bottleneck splitting the first i blocks into k
	// stages. cut[k*w+i]: the chosen last boundary.
	const inf = 1e300
	w := m + 1
	dp := make([]float64, (d+1)*w)
	cut := make([]int, (d+1)*w)
	for i := 1; i < w; i++ {
		dp[i] = inf // no blocks fit in zero stages
	}
	for k := 1; k <= d; k++ {
		prev, row := dp[(k-1)*w:k*w], dp[k*w:(k+1)*w]
		for i := 0; i <= m; i++ {
			best, bestJ := inf, 0
			// prev is non-decreasing in j (costs are non-negative, and
			// rounding is monotone), so once prev[j] reaches best no later
			// j is strictly better and the first minimum is already found.
			for j := 0; j <= i && prev[j] < best; j++ {
				cand := prev[j]
				if s := prefix[i] - prefix[j]; s > cand {
					cand = s
				}
				if cand < best {
					best, bestJ = cand, j
				}
			}
			row[i], cut[k*w+i] = best, bestJ
		}
	}
	bounds := make([]int, d+1)
	bounds[d] = m
	for k := d; k >= 1; k-- {
		bounds[k-1] = cut[k*w+bounds[k]]
	}
	return Partition{D: d, Bounds: bounds}
}

// SubnetCosts returns the per-block fwd+bwd compute cost of the subnet's
// chosen layers.
func SubnetCosts(sn *supernet.Supernet, sub supernet.Subnet) []float64 {
	out := make([]float64, len(sub.Choices))
	for b, m := range sn.Layers(sub) {
		out[b] = m.FwdMs + m.BwdMs
	}
	return out
}

// BlockAverageCosts returns, per block, the mean fwd+bwd cost over the
// block's candidates. This is the statistic a static partitioner (VPipe,
// w/o-mirroring) balances, since it cannot know which candidate each
// subnet will pick.
func BlockAverageCosts(sn *supernet.Supernet) []float64 {
	sp := sn.Space
	out := make([]float64, sp.Blocks)
	for b := 0; b < sp.Blocks; b++ {
		var sum float64
		for c := 0; c < sp.Choices; c++ {
			m := sn.Layer(b, c)
			sum += m.FwdMs + m.BwdMs
		}
		out[b] = sum / float64(sp.Choices)
	}
	return out
}

// Static computes the supernet's home partition: blocks split by average
// candidate cost. Operators are initialized on their home stage's pinned
// CPU storage (§4.2).
func Static(sn *supernet.Supernet, d int) Partition {
	return Balanced(BlockAverageCosts(sn), d)
}

// BalancedForSubnet computes the subnet's own balanced partition.
func BalancedForSubnet(sn *supernet.Supernet, sub supernet.Subnet, d int) Partition {
	return Balanced(SubnetCosts(sn, sub), d)
}

// Mirrors returns the blocks of the subnet that execute on a stage other
// than their home stage under the static partition — i.e. the layers that
// must be mirrored to another GPU's storage (§4.2). The result is sorted
// by block index (construction order).
func Mirrors(balanced, home Partition, blocks int) []int {
	var out []int
	for b := 0; b < blocks; b++ {
		if balanced.StageOf(b) != home.StageOf(b) {
			out = append(out, b)
		}
	}
	return out
}

// ImbalanceRatio returns bottleneck/mean stage cost under p — 1.0 is a
// perfectly balanced pipeline; VPipe-style static partitions typically
// exceed it on individual subnets.
func ImbalanceRatio(costs []float64, p Partition) float64 {
	sc := StageCosts(costs, p)
	var total, max float64
	for _, c := range sc {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	mean := total / float64(len(sc))
	return max / mean
}
