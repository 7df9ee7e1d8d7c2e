package naspipe_test

import (
	"context"
	"testing"

	"naspipe"
)

func TestFacadeSpaces(t *testing.T) {
	for _, sp := range []naspipe.Space{naspipe.NLPc0, naspipe.NLPc1, naspipe.NLPc2, naspipe.NLPc3, naspipe.CVc1, naspipe.CVc2, naspipe.CVc3} {
		if got, err := naspipe.SpaceByName(sp.Name); err != nil || got.Name != sp.Name {
			t.Fatalf("SpaceByName(%q): %v %+v", sp.Name, err, got)
		}
	}
	sp, err := naspipe.SpaceByName("NLP.c1")
	if err != nil || sp.Blocks != 48 || sp.Choices != 72 {
		t.Fatalf("SpaceByName: %v %+v", err, sp)
	}
}

func TestFacadeRunPolicy(t *testing.T) {
	res, err := runPolicy(naspipe.Config{
		Space: naspipe.CVc3, Spec: naspipe.DefaultCluster(4), Seed: 1, NumSubnets: 12,
	}, "naspipe")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Deadlock || res.Completed != 12 {
		t.Fatalf("run broken: %+v", res)
	}
	if _, err := naspipe.NewPolicy("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestFacadeEndToEndReproducibility(t *testing.T) {
	// A compressed version of the paper's core claim, through the public
	// API only: train on 1 and 4 GPUs; weights must be bitwise equal.
	sp := naspipe.NLPc3.Scaled(6, 3)
	cfg := naspipe.TrainConfig{Space: sp, Dim: 8, Seed: 5, BatchSize: 2, LR: 0.05}
	subs := naspipe.SampleSubnets(sp, 5, 16)
	var sums []uint64
	for _, d := range []int{1, 4} {
		res, err := runPolicy(naspipe.Config{
			Space: sp, Spec: naspipe.DefaultCluster(d), Seed: 5, NumSubnets: 16, RecordTrace: true,
		}, "naspipe")
		if err != nil {
			t.Fatal(err)
		}
		num, err := naspipe.TrainReplay(cfg, subs, res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, num.Checksum)
	}
	if sums[0] != sums[1] {
		t.Fatalf("weights differ across GPU counts: %x vs %x", sums[0], sums[1])
	}
	if seq := naspipe.TrainSequential(cfg, subs); seq.Checksum != sums[0] {
		t.Fatal("CSP result differs from sequential reference")
	}
}

func TestFacadeSearch(t *testing.T) {
	sp := naspipe.CVc3.Scaled(5, 2)
	cfg := naspipe.TrainConfig{Space: sp, Dim: 8, Seed: 2, BatchSize: 2, LR: 0.05, Dataset: 1}
	res := naspipe.TrainSequential(cfg, naspipe.SampleSubnets(sp, 2, 40))
	sc := naspipe.DefaultSearch(3)
	sc.Generations = 8
	sr, err := naspipe.Search(cfg, res.Net, sc)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Best.Score <= 0 {
		t.Fatal("search returned degenerate score")
	}
	if naspipe.Score(sp, sr.Best.Loss) != sr.Best.Score {
		t.Fatal("Score disagrees with search's own scoring")
	}
}

func TestFacadeExperimentDispatch(t *testing.T) {
	out, err := naspipe.ExperimentContext(context.Background(), "table1", naspipe.QuickExperimentOptions())
	if err != nil || out == "" {
		t.Fatalf("experiment dispatch: %v", err)
	}
	if len(naspipe.ExperimentNames()) != 17 {
		t.Fatalf("expected 17 experiments, got %v", naspipe.ExperimentNames())
	}
	if len(naspipe.PolicyNames()) != 8 {
		t.Fatalf("expected 8 policies, got %v", naspipe.PolicyNames())
	}
}
