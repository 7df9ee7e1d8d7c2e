// CV convergence comparison: the paper's Figure-4 claim at example scale.
// An AmoebaNet-style image search space (CV.c2) is trained three times on
// identical data and seeds, differing only in the parallel schedule:
// CSP (NASPipe), BSP (GPipe), and ASP (PipeDream). CSP matches sequential
// semantics exactly; the baselines read stale parameters and converge to
// different (typically worse) supernets.
//
//	go run ./examples/cv_search
package main

import (
	"context"
	"fmt"
	"log"

	"naspipe"
)

func main() {
	sp := naspipe.CVc2.Scaled(10, 3)
	const steps = 200
	cfg := naspipe.TrainConfig{Space: sp, Dim: 12, Seed: 11, BatchSize: 4, LR: 0.05, Dataset: 1 /* ImageNet-like */}
	subs := naspipe.SampleSubnets(sp, 11, steps)

	// The sequential reference defines the "correct" training result.
	ref := naspipe.TrainSequential(cfg, subs)
	probe := naspipe.SampleSubnets(sp, 999, 5)

	valLoss := func(net *naspipe.Numeric) float64 {
		var sum float64
		for _, p := range probe {
			sum += naspipe.Evaluate(cfg, net, p, 2)
		}
		return sum / float64(len(probe))
	}
	fmt.Printf("space %s, %d training steps, 8 simulated GPUs\n\n", sp.Name, steps)
	fmt.Printf("%-22s val-loss=%.4f  top5-proxy=%.2f  checksum=%016x\n",
		"sequential reference", valLoss(ref.Net), naspipe.Score(sp, valLoss(ref.Net)), ref.Checksum)

	trace := true
	for _, policy := range []string{"naspipe", "gpipe", "pipedream"} {
		run, _, err := naspipe.RunJob(context.Background(), naspipe.JobSpec{
			Space: "CV.c2", ScaleBlocks: 10, ScaleChoices: 3, Policy: policy,
			GPUs: 8, Subnets: steps, Seed: 11, Trace: &trace,
		}, false, naspipe.SuperviseConfig{})
		if err != nil {
			log.Fatal(err)
		}
		trained, err := naspipe.TrainReplay(cfg, subs, run.Trace)
		if err != nil {
			log.Fatal(err)
		}
		match := ""
		if trained.Checksum == ref.Checksum {
			match = "  == sequential, bitwise"
		}
		vl := valLoss(trained.Net)
		fmt.Printf("%-22s val-loss=%.4f  top5-proxy=%.2f  checksum=%016x%s\n",
			run.Policy, vl, naspipe.Score(sp, vl), trained.Checksum, match)
	}
}
