// Hybrid multi-space traversal — the paper's first envisioned future
// application (§5.5): NASPipe's runtime holds any number of causal
// dependency relations, so several search spaces can be explored through
// one pipeline simultaneously. Interleaving dilutes the dependency
// density (subnets from different spaces never share layers), raising
// pipeline utilization beyond either space alone while keeping training
// bitwise reproducible.
//
//	go run ./examples/hybrid_search
package main

import (
	"fmt"
	"log"

	"naspipe"
)

func main() {
	// Combine the two densest NLP spaces into one hybrid traverse.
	union, err := naspipe.NewSpaceUnion("NLP.c2+c3", naspipe.NLPc2, naspipe.NLPc3)
	if err != nil {
		log.Fatal(err)
	}
	const n = 120
	subs := union.Interleave(9, n)
	fmt.Printf("hybrid space %s: %d blocks, %d candidate bands (%d + %d choices)\n\n",
		union.Space.Name, union.Space.Blocks, len(union.Members),
		union.Members[0].Choices, union.Members[1].Choices)

	// An injected stream is a Config a JobSpec cannot express, so these
	// runs go through naspipe.Run.
	run := func(space naspipe.Space, injected []naspipe.Subnet, label string) {
		cfg := naspipe.Config{
			Space: space, Spec: naspipe.DefaultCluster(8), Seed: 9,
			NumSubnets: n, Subnets: injected, InflightLimit: 48,
		}
		policy, err := naspipe.NewPolicy("naspipe")
		if err != nil {
			log.Fatal(err)
		}
		res, err := naspipe.Run(cfg, policy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s bubble=%.2f  %6.0f subnets/hour  %6.0f samples/s\n",
			label, res.BubbleRatio, res.SubnetsPerHour, res.SamplesPerSec)
	}

	run(naspipe.NLPc2, nil, "NLP.c2 alone")
	run(naspipe.NLPc3, nil, "NLP.c3 alone")
	run(union.Space, subs, "hybrid c2+c3")

	fmt.Println("\ninterleaved streams from disjoint candidate bands never collide,")
	fmt.Println("so the CSP scheduler fills the dependency gaps of one space with")
	fmt.Println("work from the other — and every run stays bitwise reproducible.")
}
