package moe

import (
	"testing"
	"testing/quick"

	"naspipe/internal/cluster"
	"naspipe/internal/data"
	"naspipe/internal/engine"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/train"
)

func TestStreamDeterministicAndValid(t *testing.T) {
	c := StreamConfig{Space: supernet.NLPc2, Seed: 1, Skew: 1.0}
	a, err := Stream(c, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Stream(c, 50)
	for i := range a {
		if a[i].Seq != i || len(a[i].Choices) != c.Space.Blocks {
			t.Fatalf("subnet %d malformed", i)
		}
		for blk, ch := range a[i].Choices {
			if ch < 0 || ch >= c.Space.Choices {
				t.Fatalf("subnet %d block %d choice %d out of range", i, blk, ch)
			}
			if ch != b[i].Choices[blk] {
				t.Fatal("stream not deterministic")
			}
		}
	}
}

func TestZeroSkewApproximatesUniform(t *testing.T) {
	c := StreamConfig{Space: supernet.NLPc3, Seed: 2, Skew: 0}
	subs, err := Stream(c, 600)
	if err != nil {
		t.Fatal(err)
	}
	loads := HotExpertLoad(c, subs)
	// Uniform over 24 experts: each ~4.2%; hottest should stay below 10%.
	if loads[0] > 0.10 {
		t.Fatalf("skew-0 hottest expert load %.3f too high", loads[0])
	}
}

func TestSkewConcentratesTraffic(t *testing.T) {
	mk := func(skew float64) []float64 {
		c := StreamConfig{Space: supernet.NLPc3, Seed: 2, Skew: skew}
		subs, err := Stream(c, 600)
		if err != nil {
			t.Fatal(err)
		}
		return HotExpertLoad(c, subs)
	}
	uniform, hot := mk(0), mk(1.5)
	if hot[0] <= 2*uniform[0] {
		t.Fatalf("skew 1.5 hottest load %.3f not concentrated vs uniform %.3f", hot[0], uniform[0])
	}
}

func TestDependencyRateGrowsWithSkew(t *testing.T) {
	rate := func(skew float64) float64 {
		c := StreamConfig{Space: supernet.NLPc1, Seed: 3, Skew: skew}
		subs, err := Stream(c, 300)
		if err != nil {
			t.Fatal(err)
		}
		return DependencyRate(subs)
	}
	r0, r1, r2 := rate(0), rate(1.0), rate(2.0)
	if !(r0 < r1 && r1 < r2) {
		t.Fatalf("dependency rate not increasing with skew: %.3f %.3f %.3f", r0, r1, r2)
	}
}

func TestValidateRejectsNegativeSkew(t *testing.T) {
	if _, err := Stream(StreamConfig{Space: supernet.NLPc3, Skew: -1}, 5); err == nil {
		t.Fatal("expected skew validation error")
	}
}

func TestMoEStreamTrainsReproducibly(t *testing.T) {
	// Even under skewed MoE routing, CSP keeps training bitwise
	// reproducible across cluster sizes.
	sp := supernet.NLPc3.Scaled(8, 4)
	subs, err := Stream(StreamConfig{Space: sp, Seed: 5, Skew: 1.2}, 18)
	if err != nil {
		t.Fatal(err)
	}
	cfg := train.Config{Space: sp, Dim: 8, Seed: 5, BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
	var sums []uint64
	for _, d := range []int{2, 4} {
		p, _ := sched.New("naspipe")
		res, _ := engine.Run(engine.Config{
			Space: sp, Spec: cluster.Default(d), Seed: 5, Subnets: subs, RecordTrace: true,
		}, p)
		if res.Failed || res.Deadlock {
			t.Fatalf("MoE run failed at D=%d", d)
		}
		num, err := train.Replay(cfg, subs, res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, num.Checksum)
	}
	if sums[0] != sums[1] {
		t.Fatal("MoE-routed training not reproducible across GPU counts")
	}
}

func TestSkewDegradesThroughputGracefully(t *testing.T) {
	// Hotter routing means denser dependencies means more pipeline
	// bubbles — the engine must degrade monotonically-ish, not collapse.
	bubble := func(skew float64) float64 {
		subs, err := Stream(StreamConfig{Space: supernet.NLPc1, Seed: 7, Skew: skew}, 120)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := sched.New("naspipe")
		res, _ := engine.Run(engine.Config{
			Space: supernet.NLPc1, Spec: cluster.Default(8), Seed: 7,
			Subnets: subs, InflightLimit: 48,
		}, p)
		if res.Failed || res.Deadlock {
			t.Fatal("run failed")
		}
		return res.BubbleRatio
	}
	b0, b2 := bubble(0), bubble(2.0)
	if b2 <= b0 {
		t.Fatalf("skewed routing should raise the bubble: %.3f vs %.3f", b0, b2)
	}
	if b2 > 0.99 {
		t.Fatalf("pipeline collapsed under skew: bubble %.3f", b2)
	}
}

// Property: streams are valid for arbitrary seeds and skews.
func TestQuickStreamValid(t *testing.T) {
	f := func(seed uint64, skewRaw uint8) bool {
		skew := float64(skewRaw%30) / 10
		sp := supernet.NLPc3.Scaled(6, 5)
		subs, err := Stream(StreamConfig{Space: sp, Seed: seed, Skew: skew}, 20)
		if err != nil {
			return false
		}
		for i, s := range subs {
			if s.Seq != i || len(s.Choices) != 6 {
				return false
			}
			for _, c := range s.Choices {
				if c < 0 || c >= 5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// HotExpertLoad returns the activation share of each block-0 expert,
// sorted descending: a measure of the routing skew actually realised.
func HotExpertLoad(c StreamConfig, subs []supernet.Subnet) []float64 {
	counts := make([]int, c.Space.Choices)
	for _, s := range subs {
		counts[s.Choices[0]]++
	}
	loads := make([]float64, len(counts))
	for i, n := range counts {
		loads[i] = float64(n) / float64(len(subs))
	}
	// insertion sort descending (small arrays).
	for i := 1; i < len(loads); i++ {
		for j := i; j > 0 && loads[j] > loads[j-1]; j-- {
			loads[j], loads[j-1] = loads[j-1], loads[j]
		}
	}
	return loads
}
