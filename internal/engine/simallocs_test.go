package engine_test

import (
	"math"
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
)

// TestSimulatorAllocationCeiling pins what one simulated subnet costs in
// allocations per policy on NLP.c1 at D = 8, about 1.2× the measured
// value (1.12, 0.53, 0.53, 0.35 at N = 640). The event loop's task
// records and every per-subnet index of the world come from per-run
// storage, so what is left is a run's fixed cost spread over its subnets;
// one allocation per task would add 2·D = 16 per subnet.
func TestSimulatorAllocationCeiling(t *testing.T) {
	const n = 640
	cfg := engine.Config{Space: supernet.NLPc1, Spec: cluster.Default(8), Seed: 11, NumSubnets: n}
	ceilings := map[string]float64{"naspipe": 1.36, "gpipe": 0.64, "pipedream": 0.64, "vpipe": 0.42}
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
			t.Errorf("%s: %.2f allocations per simulated subnet, ceiling %.2f", name, allocs, ceiling)
		}
	}
}

// TestNewWorldAllocatesPerRunNotPerSubnet pins world setup at a fixed
// number of allocations whatever the stream length: partitions, bounds
// and layer indexes are rows of per-world slabs, and the partition DP
// reuses its buffers from subnet to subnet.
func TestNewWorldAllocatesPerRunNotPerSubnet(t *testing.T) {
	for _, mode := range []engine.PartitionMode{engine.PartitionBalanced, engine.PartitionStatic} {
		var allocs [2]float64
		for i, n := range []int{64, 1024} {
			cfg := engine.Config{Space: supernet.NLPc1, Spec: cluster.Default(8), Subnets: supernet.Sample(supernet.NLPc1, 3, n)}
			allocs[i] = testing.AllocsPerRun(3, func() {
				if _, err := engine.NewWorld(cfg, mode); err != nil {
					t.Fatal(err)
				}
			})
		}
		if math.Abs(allocs[1]-allocs[0]) > 2 {
			t.Errorf("partition mode %d: NewWorld allocated %.0f times for 64 subnets, %.0f for 1024", mode, allocs[0], allocs[1])
		}
	}
}
