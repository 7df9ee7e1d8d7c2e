package engine

import (
	"fmt"
	"slices"
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/supernet"
)

// TestNoteRoutesMatchBruteForce holds the routing table to its
// definition by brute force: for every subnet, stage and layer it
// writes there, the stage on which the layer's next selector reads it
// is in the row whenever it differs from the writer's stage, and the
// row lists no other stage, none twice. Balanced per-subnet partitions
// move a layer between stages from subnet to subnet, which is what
// makes the rows differ from "the stage itself".
func TestNoteRoutesMatchBruteForce(t *testing.T) {
	for _, tc := range []struct {
		space supernet.Space
		d, n  int
	}{
		{supernet.NLPc3.Scaled(8, 3), 4, 64},
		{supernet.NLPc1, 2, 40},
		{supernet.NLPc1, 4, 40},
		{supernet.NLPc1, 8, 40},
		{supernet.NLPc1.Scaled(12, 4), 16, 40},
	} {
		t.Run(fmt.Sprintf("%s/gpus=%d", tc.space.Name, tc.d), func(t *testing.T) {
			cfg := Config{Space: tc.space, Spec: cluster.Default(tc.d), Seed: 5, NumSubnets: tc.n}.withDefaults()
			w, err := NewWorld(cfg, PartitionBalanced)
			if err != nil {
				t.Fatal(err)
			}
			r := newNoteRoutes(w)
			// stageOf is where subnet j reads layer id, or −1.
			stageOf := func(j int, id supernet.LayerID) int {
				for k, ids := range w.stageIDs[j] {
					if slices.Contains(ids, id) {
						return k
					}
				}
				return -1
			}
			moved := 0
			for i := range w.Subnets {
				for k := 0; k < w.D; k++ {
					var want []int32
					for _, id := range w.stageIDs[i][k] {
						for j := i + 1; j < len(w.Subnets); j++ {
							if to := stageOf(j, id); to >= 0 {
								if to != k && !slices.Contains(want, int32(to)) {
									want = append(want, int32(to))
								}
								break
							}
						}
					}
					got := slices.Clone(r.row(i, k))
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("subnet %d stage %d: routes %v, next readers' stages %v", i, k, got, want)
					}
					if len(got) > w.D-1 {
						t.Fatalf("subnet %d stage %d: %d destinations for %d stages", i, k, len(got), w.D)
					}
					moved += len(got)
				}
			}
			if tc.d > 1 && moved == 0 {
				t.Fatal("no layer's next reader ever ran on another stage: the table was not exercised")
			}
			t.Logf("%.2f notes per subnet (a broadcast sends %d)", float64(moved)/float64(len(w.Subnets)), tc.d*(tc.d-1))
		})
	}
}

// TestNoteRoutesAllocateOnce pins the table's cost: a constant number of
// allocations, whatever the stream length or pipeline depth.
func TestNoteRoutesAllocateOnce(t *testing.T) {
	for _, d := range []int{2, 8} {
		for _, n := range []int{16, 512} {
			cfg := Config{Space: supernet.NLPc1, Spec: cluster.Default(d), Seed: 3, NumSubnets: n}.withDefaults()
			w, err := NewWorld(cfg, PartitionBalanced)
			if err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(10, func() { newNoteRoutes(w) }); a > 4 {
				t.Fatalf("gpus=%d n=%d: building the routes allocated %.0f times, want at most 4", d, n, a)
			}
		}
	}
}
