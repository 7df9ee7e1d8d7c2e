// Mixture-of-experts routing — the paper's second envisioned future
// application (§5.5): supernet adoption in dynamic networks and MoE
// models. Unlike SPOS's uniform sampling, an MoE gate routes traffic with
// a popularity skew, which densifies the causal dependency graph. This
// example sweeps the routing skew and shows how NASPipe's CSP pipeline
// absorbs it — gracefully rising bubbles, reproducibility intact.
//
//	go run ./examples/moe_routing
package main

import (
	"fmt"
	"log"

	"naspipe"
)

func main() {
	space := naspipe.NLPc1
	const n = 120
	fmt.Printf("MoE-style routing over %s (%d blocks x %d experts), %d steps\n\n",
		space.Name, space.Blocks, space.Choices, n)
	fmt.Printf("%-10s %-10s %-8s %-14s %s\n", "skew", "dep-rate", "bubble", "subnets/hour", "hottest expert load")

	for _, skew := range []float64{0, 0.5, 1.0, 1.5, 2.0} {
		cfg := naspipe.MoEStreamConfig{Space: space, Seed: 13, Skew: skew}
		subs, err := naspipe.MoEStream(cfg, n)
		if err != nil {
			log.Fatal(err)
		}
		dep := 0
		for i := 1; i < len(subs); i++ {
			prev, cur := subs[i-1], subs[i]
			for b := range cur.Choices {
				if prev.Choices[b] == cur.Choices[b] {
					dep++
					break
				}
			}
		}
		counts := make(map[int]int)
		for _, s := range subs {
			counts[s.Choices[0]]++
		}
		hottest := 0
		for _, c := range counts {
			if c > hottest {
				hottest = c
			}
		}
		// The routed stream is injected, which a JobSpec cannot express:
		// it runs as a Config through naspipe.Run.
		policy, err := naspipe.NewPolicy("naspipe")
		if err != nil {
			log.Fatal(err)
		}
		res, err := naspipe.Run(naspipe.Config{
			Space: space, Spec: naspipe.DefaultCluster(8), Seed: 13,
			Subnets: subs, InflightLimit: 48,
		}, policy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10.1f %-10.2f %-8.2f %-14.0f %.1f%%\n",
			skew, float64(dep)/float64(n-1), res.BubbleRatio, res.SubnetsPerHour,
			100*float64(hottest)/float64(n))
	}

	fmt.Println("\nhot experts serialize on their shared parameters, but the CSP")
	fmt.Println("scheduler keeps filling the pipeline with independent steps — and")
	fmt.Println("the training procedure stays deterministic at every skew.")
}
