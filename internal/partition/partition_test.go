package partition

import (
	"math"
	"testing"
	"testing/quick"

	"naspipe/internal/rng"
	"naspipe/internal/supernet"
)

func TestBalancedKnown(t *testing.T) {
	// costs 1,1,1,1 into 2 stages -> split at 2, bottleneck 2.
	p := Balanced([]float64{1, 1, 1, 1}, 2)
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	if got := MaxStageCost([]float64{1, 1, 1, 1}, p); got != 2 {
		t.Fatalf("bottleneck %f want 2", got)
	}
	// A heavy head: 10,1,1,1 into 2 -> stage0={10}, stage1={1,1,1}.
	p = Balanced([]float64{10, 1, 1, 1}, 2)
	if p.Bounds[1] != 1 {
		t.Fatalf("bounds %v, want cut after block 0", p.Bounds)
	}
}

func TestBalancedSingleStage(t *testing.T) {
	costs := []float64{3, 1, 4}
	p := Balanced(costs, 1)
	if err := p.Validate(3); err != nil {
		t.Fatal(err)
	}
	if got := MaxStageCost(costs, p); got != 8 {
		t.Fatalf("bottleneck %f want 8", got)
	}
}

func TestBalancedMoreStagesThanBlocks(t *testing.T) {
	costs := []float64{5, 7}
	p := Balanced(costs, 4)
	if err := p.Validate(2); err != nil {
		t.Fatal(err)
	}
	if got := MaxStageCost(costs, p); got != 7 {
		t.Fatalf("bottleneck %f want 7 (each block alone)", got)
	}
}

func TestBalancedEmptyCosts(t *testing.T) {
	p := Balanced(nil, 3)
	if err := p.Validate(0); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedPanicsOnBadD(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Balanced([]float64{1}, 0)
}

func TestStageOfAndBlocks(t *testing.T) {
	p := Partition{D: 3, Bounds: []int{0, 2, 2, 5}}
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	wantStages := []int{0, 0, 2, 2, 2}
	for b, w := range wantStages {
		if got := p.StageOf(b); got != w {
			t.Fatalf("StageOf(%d) = %d want %d", b, got, w)
		}
	}
	lo, hi := p.Blocks(1)
	if lo != 2 || hi != 2 {
		t.Fatalf("empty stage bounds (%d,%d)", lo, hi)
	}
}

func TestValidateRejectsBadPartitions(t *testing.T) {
	bad := []Partition{
		{D: 2, Bounds: []int{0, 3}},       // wrong length
		{D: 2, Bounds: []int{1, 2, 5}},    // doesn't start at 0
		{D: 2, Bounds: []int{0, 2, 4}},    // doesn't end at m=5
		{D: 2, Bounds: []int{0, 4, 3}},    // non-monotone... ends at 3 != 5 also
		{D: 0, Bounds: []int{0}},          // no stages
		{D: 3, Bounds: []int{0, 4, 2, 5}}, // non-monotone
	}
	for i, p := range bad {
		if err := p.Validate(5); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestStaticBalancesAverages(t *testing.T) {
	sn := supernet.Build(supernet.NLPc3)
	p := Static(sn, 8)
	if err := p.Validate(supernet.NLPc3.Blocks); err != nil {
		t.Fatal(err)
	}
	avg := BlockAverageCosts(sn)
	if r := ImbalanceRatio(avg, p); r > 1.35 {
		t.Fatalf("static partition imbalance on averages %f too high", r)
	}
}

func TestBalancedBeatsStaticOnSubnets(t *testing.T) {
	// NASPipe's claim: per-subnet balanced partitions have lower bottleneck
	// than the static partition, on average (Table 2: 9.6% faster exec).
	sn := supernet.Build(supernet.NLPc1)
	static := Static(sn, 8)
	var balancedSum, staticSum float64
	subs := supernet.Sample(supernet.NLPc1, 5, 30)
	for _, sub := range subs {
		costs := SubnetCosts(sn, sub)
		bp := Balanced(costs, 8)
		balancedSum += MaxStageCost(costs, bp)
		staticSum += MaxStageCost(costs, static)
	}
	if balancedSum >= staticSum {
		t.Fatalf("balanced (%f) not better than static (%f) over 30 subnets", balancedSum, staticSum)
	}
}

func TestMirrors(t *testing.T) {
	balanced := Partition{D: 2, Bounds: []int{0, 3, 5}}
	home := Partition{D: 2, Bounds: []int{0, 2, 5}}
	got := Mirrors(balanced, home, 5)
	// Block 2: balanced stage 0, home stage 1 -> mirrored.
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Mirrors = %v want [2]", got)
	}
	if m := Mirrors(home, home, 5); m != nil {
		t.Fatalf("identical partitions should have no mirrors, got %v", m)
	}
}

func TestImbalanceRatio(t *testing.T) {
	costs := []float64{1, 1, 1, 1}
	even := Partition{D: 2, Bounds: []int{0, 2, 4}}
	if r := ImbalanceRatio(costs, even); r != 1 {
		t.Fatalf("even split imbalance %f want 1", r)
	}
	skew := Partition{D: 2, Bounds: []int{0, 3, 4}}
	if r := ImbalanceRatio(costs, skew); r != 1.5 {
		t.Fatalf("skew imbalance %f want 1.5", r)
	}
	if r := ImbalanceRatio([]float64{0, 0, 0, 0}, even); r != 1 {
		t.Fatalf("zero-cost imbalance %f want 1", r)
	}
}

// bruteForceBottleneck finds the optimal min-max by exhaustive search over
// cut positions (small m only).
func bruteForceBottleneck(costs []float64, d int) float64 {
	m := len(costs)
	best := math.Inf(1)
	var recurse func(start, stagesLeft int, worst float64)
	recurse = func(start, stagesLeft int, worst float64) {
		if stagesLeft == 1 {
			var sum float64
			for _, c := range costs[start:] {
				sum += c
			}
			if sum > worst {
				worst = sum
			}
			if worst < best {
				best = worst
			}
			return
		}
		for end := start; end <= m; end++ {
			var sum float64
			for _, c := range costs[start:end] {
				sum += c
			}
			w := worst
			if sum > w {
				w = sum
			}
			recurse(end, stagesLeft-1, w)
		}
	}
	recurse(0, d, 0)
	return best
}

// Property: the DP achieves the brute-force optimal bottleneck.
func TestQuickBalancedOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := 1 + r.Intn(9)
		d := 1 + r.Intn(4)
		costs := make([]float64, m)
		for i := range costs {
			costs[i] = float64(1+r.Intn(20)) / 2
		}
		p := Balanced(costs, d)
		if p.Validate(m) != nil {
			return false
		}
		got := MaxStageCost(costs, p)
		want := bruteForceBottleneck(costs, d)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Balanced is deterministic and its bounds are valid for random
// inputs.
func TestQuickBalancedDeterministicValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := 1 + r.Intn(40)
		d := 1 + r.Intn(16)
		costs := make([]float64, m)
		for i := range costs {
			costs[i] = r.Float64()*10 + 0.01
		}
		p1 := Balanced(costs, d)
		p2 := Balanced(costs, d)
		if p1.Validate(m) != nil {
			return false
		}
		for i := range p1.Bounds {
			if p1.Bounds[i] != p2.Bounds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every block belongs to exactly one stage (StageOf agrees with
// Bounds coverage).
func TestQuickCoverage(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := 1 + r.Intn(30)
		d := 1 + r.Intn(8)
		costs := make([]float64, m)
		for i := range costs {
			costs[i] = r.Float64() + 0.1
		}
		p := Balanced(costs, d)
		counts := make([]int, d)
		for b := 0; b < m; b++ {
			counts[p.StageOf(b)]++
		}
		total := 0
		for k := 0; k < d; k++ {
			lo, hi := p.Blocks(k)
			if counts[k] != hi-lo {
				return false
			}
			total += counts[k]
		}
		return total == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// unprunedBalanced is Balanced before its j scan stopped early: every j
// of every (k, i) cell is tried, and the first minimum kept. It is the
// oracle the pruned DP is held to bound for bound.
func unprunedBalanced(costs []float64, d int) Partition {
	m := len(costs)
	if m == 0 {
		return Partition{D: d, Bounds: make([]int, d+1)}
	}
	prefix := make([]float64, m+1)
	for i, c := range costs {
		prefix[i+1] = prefix[i] + c
	}
	const inf = 1e300
	dp := make([][]float64, d+1)
	cut := make([][]int, d+1)
	for k := range dp {
		dp[k] = make([]float64, m+1)
		cut[k] = make([]int, m+1)
		for i := range dp[k] {
			dp[k][i] = inf
		}
	}
	dp[0][0] = 0
	for k := 1; k <= d; k++ {
		for i := 0; i <= m; i++ {
			for j := 0; j <= i; j++ {
				if dp[k-1][j] >= inf {
					continue
				}
				cand := dp[k-1][j]
				if s := prefix[i] - prefix[j]; s > cand {
					cand = s
				}
				if cand < dp[k][i] {
					dp[k][i] = cand
					cut[k][i] = j
				}
			}
		}
	}
	bounds := make([]int, d+1)
	bounds[d] = m
	for k := d; k >= 1; k-- {
		bounds[k-1] = cut[k][bounds[k]]
	}
	return Partition{D: d, Bounds: bounds}
}

func sameBounds(a, b Partition) bool {
	if a.D != b.D || len(a.Bounds) != len(b.Bounds) {
		return false
	}
	for i := range a.Bounds {
		if a.Bounds[i] != b.Bounds[i] {
			return false
		}
	}
	return true
}

// TestBalancedMatchesUnprunedDP: stopping the j scan early changes no
// boundary, tie-breaks included. Costs come from a small integer menu
// with zeros, so equal bottlenecks and equal prefix sums are common, and
// d often exceeds m.
func TestBalancedMatchesUnprunedDP(t *testing.T) {
	r := rng.New(3)
	menu := []float64{0, 0, 0.5, 1, 1, 2, 3.25, 7}
	for trial := 0; trial < 3000; trial++ {
		m, d := r.Intn(20), 1+r.Intn(12)
		costs := make([]float64, m)
		for i := range costs {
			if trial%2 == 0 {
				costs[i] = menu[r.Intn(len(menu))]
			} else {
				costs[i] = r.Float64() * 10 // distinct, unrounded
			}
		}
		if got, want := Balanced(costs, d), unprunedBalanced(costs, d); !sameBounds(got, want) {
			t.Fatalf("costs %v d=%d: bounds %v, unpruned DP %v", costs, d, got.Bounds, want.Bounds)
		}
	}
}

// TestBalancedMatchesUnprunedDPOnSubnets pins the geometry the simulator
// partitions: NLP.c1 subnets at every depth up to 8, and the home split.
func TestBalancedMatchesUnprunedDPOnSubnets(t *testing.T) {
	sn := supernet.Build(supernet.NLPc1)
	for d := 1; d <= 8; d++ {
		avg := BlockAverageCosts(sn)
		if got, want := Balanced(avg, d), unprunedBalanced(avg, d); !sameBounds(got, want) {
			t.Fatalf("home d=%d: bounds %v, unpruned DP %v", d, got.Bounds, want.Bounds)
		}
		for _, sub := range supernet.Sample(supernet.NLPc1, uint64(d), 40) {
			costs := SubnetCosts(sn, sub)
			if got, want := Balanced(costs, d), unprunedBalanced(costs, d); !sameBounds(got, want) {
				t.Fatalf("subnet %d d=%d: bounds %v, unpruned DP %v", sub.Seq, d, got.Bounds, want.Bounds)
			}
		}
	}
}

func BenchmarkBalanced48x8(b *testing.B) {
	r := rng.New(1)
	costs := make([]float64, 48)
	for i := range costs {
		costs[i] = r.Float64()*20 + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Balanced(costs, 8)
	}
}
