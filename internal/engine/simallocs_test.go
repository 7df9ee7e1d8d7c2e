package engine_test

import (
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
)

// TestSimulatorAllocationCeiling pins what one simulated subnet costs in
// allocations per policy on NLP.c1 at D = 8, about 1.2× the measured
// value (131.8, 118.5, 118.4, 114.2 at N = 40). Boxing every event into
// an interface, a per-call eviction buffer or a heap entry per cached
// layer each add far more than the slack.
func TestSimulatorAllocationCeiling(t *testing.T) {
	const n = 40
	cfg := engine.Config{Space: supernet.NLPc1, Spec: cluster.Default(8), Seed: 11, NumSubnets: n}
	ceilings := map[string]float64{"naspipe": 158, "gpipe": 142, "pipedream": 142, "vpipe": 137}
	for name, ceiling := range ceilings {
		allocs := testing.AllocsPerRun(2, func() {
			p, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := engine.Run(cfg, p); err != nil || res.Completed != n {
				t.Fatalf("%s: completed %d of %d, err %v", name, res.Completed, n, err)
			}
		}) / n
		if allocs > ceiling {
			t.Errorf("%s: %.1f allocations per simulated subnet, ceiling %.0f", name, allocs, ceiling)
		}
	}
}
