// Reproducibility demo (the paper's Definition 1 and Table 3): train the
// same supernet with the same seed on clusters of 1, 2, 4, and 8 GPUs.
// Under NASPipe's CSP schedule the final weights are bitwise identical
// everywhere; under GPipe's BSP they differ per cluster size.
//
//	go run ./examples/reproducibility
package main

import (
	"context"
	"fmt"
	"log"

	"naspipe"
)

func main() {
	sp := naspipe.NLPc2.Scaled(10, 4)
	const steps = 120
	cfg := naspipe.TrainConfig{Space: sp, Dim: 10, Seed: 3, BatchSize: 3, LR: 0.05}
	subs := naspipe.SampleSubnets(sp, 3, steps)
	gpuCounts := []int{1, 2, 4, 8}
	trace := true

	for _, policy := range []string{"naspipe", "gpipe"} {
		fmt.Printf("--- %s ---\n", policy)
		var first uint64
		allEqual := true
		for i, d := range gpuCounts {
			run, _, err := naspipe.RunJob(context.Background(), naspipe.JobSpec{
				Space: "NLP.c2", ScaleBlocks: 10, ScaleChoices: 4, Policy: policy,
				GPUs: d, Subnets: steps, Seed: 3, Trace: &trace,
			}, false, naspipe.SuperviseConfig{})
			if err != nil {
				log.Fatal(err)
			}
			if run.Failed {
				fmt.Printf("%2d GPUs: cannot run (%s)\n", d, run.FailReason)
				allEqual = false
				continue
			}
			trained, err := naspipe.TrainReplay(cfg, subs, run.Trace)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%2d GPUs: final-weight checksum %016x, step-0 loss %.9g\n",
				d, trained.Checksum, trained.Losses[0])
			if i == 0 {
				first = trained.Checksum
			} else if trained.Checksum != first {
				allEqual = false
			}
		}
		if allEqual {
			fmt.Println("=> bitwise identical on every cluster size (reproducible)")
		} else {
			fmt.Println("=> results depend on the cluster size (NOT reproducible)")
		}
		fmt.Println()
	}
}
