// NLP architecture search: the paper's motivating workload — a
// Transformer-based NAS search space (Evolved Transformer-style, NLP.c1)
// too large for any single GPU. This example trains a scaled-down
// trainable instance of the space under NASPipe's CSP schedule and then
// searches it with regularized evolution, end to end through the public
// API.
//
//	go run ./examples/nlp_search
package main

import (
	"context"
	"fmt"
	"log"

	"naspipe"
)

func main() {
	// The full NLP.c1 supernet holds ~15B parameters — that is what the
	// performance plane simulates. The numeric plane trains a
	// geometry-scaled instance with real float32 weights.
	full := naspipe.NLPc1
	sp := full.Scaled(12, 9)
	const steps = 240

	fmt.Printf("full space: %s (%d x %d candidates)\n", full.Name, full.Blocks, full.Choices)
	fmt.Printf("numeric instance: %s\n\n", sp.Name)

	// 1. Schedule the subnet stream with CSP on a simulated 8-GPU cluster,
	//    recording the parameter access trace.
	trace := true
	run, _, err := naspipe.RunJob(context.Background(), naspipe.JobSpec{
		Space: full.Name, ScaleBlocks: 12, ScaleChoices: 9,
		GPUs: 8, Subnets: steps, Seed: 7, Trace: &trace,
	}, false, naspipe.SuperviseConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduled %d subnets in %.1f simulated s (bubble %.2f, cache hit %.1f%%)\n",
		run.Completed, run.TotalMs/1000, run.BubbleRatio, 100*run.CacheHitRate)

	// 2. Replay the schedule on real weights.
	cfg := naspipe.TrainConfig{Space: sp, Dim: 12, Seed: 7, BatchSize: 4, LR: 0.05}
	subs := naspipe.SampleSubnets(sp, 7, steps)
	trained, err := naspipe.TrainReplay(cfg, subs, run.Trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained supernet checksum: %016x\n", trained.Checksum)
	fmt.Printf("first/last training loss: %.4f -> %.4f\n\n",
		trained.Losses[0], trained.Losses[len(trained.Losses)-1])

	// 3. Evolutionary search over the trained supernet.
	sc := naspipe.DefaultSearch(7)
	sc.Generations = 40
	found, err := naspipe.Search(cfg, trained.Net, sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evolution evaluated %d candidates\n", found.Evaluated)
	fmt.Printf("best architecture: %v\n", found.Best.Subnet.Choices)
	fmt.Printf("best BLEU-proxy score: %.2f (val loss %.4f)\n", found.Best.Score, found.Best.Loss)
	fmt.Println("\nbecause training used CSP, this exact result reproduces on any cluster size.")
}
