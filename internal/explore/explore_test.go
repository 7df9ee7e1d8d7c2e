package explore

import (
	"math"
	"testing"
	"testing/quick"

	"naspipe/internal/data"
	"naspipe/internal/rng"
	"naspipe/internal/supernet"
	"naspipe/internal/train"
)

func trainedNet(t testing.TB, seed uint64) (train.Config, *supernet.Numeric) {
	t.Helper()
	sp := supernet.NLPc3.Scaled(5, 3)
	cfg := train.Config{Space: sp, Dim: 8, Seed: seed, BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
	res := train.Sequential(cfg, supernet.Sample(sp, seed, 60))
	return cfg, res.Net
}

func TestSearchDeterministic(t *testing.T) {
	cfg, net := trainedNet(t, 1)
	sc := DefaultSearchConfig(9)
	sc.Generations = 10
	a, err := Search(cfg, net, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(cfg, net, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Score != b.Best.Score || a.Evaluated != b.Evaluated {
		t.Fatal("search not deterministic")
	}
	for i := range a.Best.Subnet.Choices {
		if a.Best.Subnet.Choices[i] != b.Best.Subnet.Choices[i] {
			t.Fatal("best subnet differs across identical searches")
		}
	}
}

func TestSearchImprovesOverRandom(t *testing.T) {
	cfg, net := trainedNet(t, 2)
	sc := DefaultSearchConfig(3)
	sc.Generations = 24
	res, err := Search(cfg, net, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != sc.Generations {
		t.Fatalf("history length %d", len(res.History))
	}
	// Best score is monotone non-decreasing... not guaranteed by
	// regularized evolution (best member can age out), but the final best
	// must be at least the first generation's best.
	if res.History[len(res.History)-1]+1e-9 < res.History[0]-1e-6 {
		t.Logf("note: best aged out (%f -> %f)", res.History[0], res.History[len(res.History)-1])
	}
	if res.Best.Score <= 0 {
		t.Fatal("degenerate best score")
	}
	if res.Evaluated != sc.Population+sc.Generations {
		t.Fatalf("evaluated %d", res.Evaluated)
	}
}

// TestEvolutionCompetitiveWithRandom: at equal evaluation budget,
// evolution must not lose badly to the best of uniformly sampled subnets
// (it typically wins on structured spaces).
func TestEvolutionCompetitiveWithRandom(t *testing.T) {
	cfg, net := trainedNet(t, 12)
	sc := DefaultSearchConfig(6)
	sc.Population = 10
	sc.Generations = 30 // 40 evaluations total
	evo, err := Search(cfg, net, sc)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.Labeled(6, "random-search/"+cfg.Space.Name)
	random := math.Inf(-1)
	for i := 0; i < evo.Evaluated; i++ {
		choices := make([]int, cfg.Space.Blocks)
		for b := range choices {
			choices[b] = r.Intn(cfg.Space.Choices)
		}
		loss := train.Evaluate(cfg, net, supernet.Subnet{Seq: i, Choices: choices}, sc.ValBatches)
		random = math.Max(random, train.Score(cfg.Space.Domain, loss))
	}
	if evo.Best.Score < random*0.97 {
		t.Fatalf("evolution (%.3f) lost badly to random (%.3f)", evo.Best.Score, random)
	}
}

func TestSearchValidatesConfig(t *testing.T) {
	cfg, net := trainedNet(t, 1)
	bad := DefaultSearchConfig(1)
	bad.Population = 1
	if _, err := Search(cfg, net, bad); err == nil {
		t.Fatal("expected config error")
	}
	bad = DefaultSearchConfig(1)
	bad.Tournament = 99
	if _, err := Search(cfg, net, bad); err == nil {
		t.Fatal("expected tournament error")
	}
}

func TestPopulationSortedByScore(t *testing.T) {
	cfg, net := trainedNet(t, 4)
	sc := DefaultSearchConfig(5)
	sc.Generations = 6
	res, err := Search(cfg, net, sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Population); i++ {
		if res.Population[i].Score > res.Population[i-1].Score {
			t.Fatal("population not sorted by score")
		}
	}
	if res.Best.Score != res.Population[0].Score {
		t.Fatal("Best is not the top of the population")
	}
}

// Property: every candidate the search returns is a valid subnet of the
// space.
func TestQuickCandidatesValid(t *testing.T) {
	cfg, net := trainedNet(t, 6)
	f := func(seed uint64) bool {
		sc := DefaultSearchConfig(seed)
		sc.Population = 6
		sc.Generations = 8
		sc.Tournament = 3
		res, err := Search(cfg, net, sc)
		if err != nil {
			return false
		}
		for _, c := range res.Population {
			if len(c.Subnet.Choices) != cfg.Space.Blocks {
				return false
			}
			for _, ch := range c.Subnet.Choices {
				if ch < 0 || ch >= cfg.Space.Choices {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
