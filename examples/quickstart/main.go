// Quickstart: simulate pipeline-parallel supernet training with NASPipe's
// causal synchronous parallel (CSP) scheduler, compare it against the
// GPipe baseline on the same workload, then run the same CSP schedule on
// the concurrent (goroutine-per-stage) execution plane.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"naspipe"
)

func main() {
	ctx := context.Background()

	// Pick a Table-1 search space and the paper's 8-GPU testbed. A run is
	// described once, as a JobSpec; RunJob lowers and runs it.
	space := naspipe.NLPc1
	spec := naspipe.JobSpec{Space: space.Name, GPUs: 8, Subnets: 120, Seed: 1}

	fmt.Printf("search space %s: %d choice blocks x %d candidate layers (%s)\n\n",
		space.Name, space.Blocks, space.Choices, space.Dataset)

	for _, policy := range []string{"naspipe", "gpipe"} {
		spec.Policy = policy
		res, _, err := naspipe.RunJob(ctx, spec, false, naspipe.SuperviseConfig{})
		if err != nil {
			log.Fatal(err)
		}
		if res.Failed {
			fmt.Printf("%-8s cannot run: %s\n", res.Policy, res.FailReason)
			continue
		}
		repro := "NOT reproducible"
		p, _ := naspipe.NewPolicy(policy)
		if p.Traits().Reproducible {
			repro = "reproducible (CSP)"
		}
		fmt.Printf("%-8s batch=%-3d  %6.0f samples/s  bubble=%.2f  ALU=%.2fx  %s\n",
			res.Policy, res.Batch, res.SamplesPerSec, res.BubbleRatio, res.ALUTotal, repro)
	}

	// The same CSP schedule, executed for real: one goroutine per pipeline
	// stage, channels for activations/gradients, per-stage CSP admission.
	// The run fails loudly if the observed parameter-access order ever
	// diverges from the sequential reference.
	trace := true
	spec.Policy, spec.Executor, spec.Trace = "naspipe", naspipe.ExecutorConcurrent.String(), &trace
	res, _, err := naspipe.RunJob(ctx, spec, false, naspipe.SuperviseConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconcurrent plane: %d subnets across %d stage goroutines in %.1fms wall clock,\n",
		res.Completed, res.D, res.TotalMs)
	fmt.Println("per-layer access order verified equal to the sequential reference.")

	fmt.Println("\nNASPipe evicts inactive subnet contexts to CPU memory, which buys a")
	fmt.Println("much larger batch (higher GPU efficiency) while deterministically")
	fmt.Println("resolving every causal dependency between subnets.")
}
