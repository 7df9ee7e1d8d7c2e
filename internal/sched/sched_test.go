package sched

import (
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/supernet"
)

func world(t *testing.T, space supernet.Space, d, n int, mode engine.PartitionMode) *engine.World {
	t.Helper()
	w, err := engine.NewWorld(engine.Config{Space: space, Spec: cluster.Default(d), Seed: 1, NumSubnets: n}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCatalogCoversAllPolicies(t *testing.T) {
	want := []string{"gpipe", "naspipe", "naspipe-nomirroring", "naspipe-nopredictor",
		"naspipe-noscheduler", "pipedream", "sequential", "vpipe"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestTraitsMatchPaperConfigurations(t *testing.T) {
	cases := []struct {
		name         string
		reproducible bool
		partition    engine.PartitionMode
		cacheFactor  float64
		stash        float64
	}{
		{"naspipe", true, engine.PartitionBalanced, 3, 1},
		{"gpipe", false, engine.PartitionStatic, 0, 1},
		{"pipedream", false, engine.PartitionStatic, 0, 2},
		{"vpipe", false, engine.PartitionStatic, 1.2, 1},
		{"sequential", true, engine.PartitionBalanced, 3, 1},
		{"naspipe-nopredictor", true, engine.PartitionBalanced, 0, 1},
		{"naspipe-nomirroring", true, engine.PartitionStatic, 3, 1},
		{"naspipe-noscheduler", true, engine.PartitionBalanced, 3, 1},
	}
	for _, c := range cases {
		p, err := New(c.name)
		if err != nil {
			t.Fatal(err)
		}
		tr := p.Traits()
		if tr.Reproducible != c.reproducible {
			t.Errorf("%s: Reproducible = %v", c.name, tr.Reproducible)
		}
		if tr.Partition != c.partition {
			t.Errorf("%s: Partition = %v", c.name, tr.Partition)
		}
		if tr.CacheFactor != c.cacheFactor {
			t.Errorf("%s: CacheFactor = %v", c.name, tr.CacheFactor)
		}
		if tr.ActStashFactor != c.stash {
			t.Errorf("%s: ActStashFactor = %v", c.name, tr.ActStashFactor)
		}
	}
}

func TestNASPipeBackwardPriorityLowestSeq(t *testing.T) {
	p := NewNASPipe()
	p.Init(world(t, supernet.CVc3, 2, 8, engine.PartitionBalanced))
	if got := p.SelectBackward(0, []int{5, 2, 7}, 0); got != 1 {
		t.Fatalf("SelectBackward picked index %d, want 1 (seq 2)", got)
	}
	if got := p.SelectBackward(0, nil, 0); got != -1 {
		t.Fatal("empty ready must return -1")
	}
}

func TestNASPipeForwardSkipsBlocked(t *testing.T) {
	w := world(t, supernet.CVc3.Scaled(4, 1), 2, 4, engine.PartitionBalanced)
	// One choice per block: every subnet shares every layer; strict chain.
	p := NewNASPipe()
	p.Init(w)
	// Subnet 0 unfinished: 1..3 all blocked; only 0 schedulable.
	if got := p.SelectForward(0, []int{1, 2, 3}, 0); got != -1 {
		t.Fatalf("expected all blocked, got %d", got)
	}
	if got := p.SelectForward(0, []int{0, 1, 2}, 0); got != 0 {
		t.Fatalf("subnet 0 should be schedulable, got %d", got)
	}
}

func TestNASPipeNoReorderStallsAtHead(t *testing.T) {
	w := world(t, supernet.CVc3.Scaled(4, 2), 2, 8, engine.PartitionBalanced)
	opts := DefaultNASPipeOptions()
	opts.Reorder = false
	p := NewNASPipeWith("test", opts)
	p.Init(w)
	// Find a queue whose head is blocked but a later entry is not: subnet
	// 1 blocked iff it shares with 0. With 2 choices over 4 blocks it
	// almost surely shares. A reordering policy would skip it; this one
	// must return -1.
	full := NewNASPipe()
	full.Init(w)
	queue := []int{1, 2, 3, 4}
	if fullIdx := full.SelectForward(0, queue, 0); fullIdx > 0 {
		if got := p.SelectForward(0, queue, 0); got != -1 {
			t.Fatalf("no-reorder policy advanced index %d past blocked head", got)
		}
	}
}

func TestNASPipeWriteBroadcastUnblocks(t *testing.T) {
	w := world(t, supernet.CVc3.Scaled(3, 1), 2, 3, engine.PartitionBalanced)
	p := NewNASPipe()
	p.Init(w)
	if got := p.SelectForward(0, []int{1}, 0); got != -1 {
		t.Fatal("subnet 1 should start blocked")
	}
	// Subnet 0's backward completes on both stages, then flushes at 0:
	// stage 0 hears stage 1's write release, then applies its own.
	p.Note(0, 0, w.StageLayerIDs(0, 1), false)
	p.Note(0, 0, w.StageLayerIDs(0, 0), true)
	if got := p.SelectForward(0, []int{1}, 3); got != 0 {
		t.Fatal("subnet 1 should unblock after subnet 0's writes")
	}
}

func TestGPipeBulkBarrier(t *testing.T) {
	w := world(t, supernet.CVc3, 2, 6, engine.PartitionStatic)
	p := NewGPipe()
	p.Init(w)
	// Bulk size = D = 2. Forwards 0,1 admitted; 2 must wait for the flush.
	if got := p.SelectForward(0, []int{0, 1, 2}, 0); got != 0 {
		t.Fatal("first bulk forward refused")
	}
	if got := p.SelectForward(0, []int{2, 3}, 0); got != -1 {
		t.Fatal("second bulk admitted before flush")
	}
	// Finish bulk 0 at stage 0 (backwards flush).
	p.OnBackwardDone(0, 0, 1)
	p.OnBackwardDone(0, 1, 1)
	if got := p.SelectForward(0, []int{2, 3}, 2); got != 0 {
		t.Fatal("second bulk refused after flush")
	}
}

func TestGPipeLastStageHoldsBackwards(t *testing.T) {
	w := world(t, supernet.CVc3, 2, 4, engine.PartitionStatic)
	p := NewGPipe()
	p.Init(w)
	last := 1
	// Only one of the bulk's two forwards has reached the last stage.
	p.OnForwardDone(last, 0, 1)
	if got := p.SelectBackward(last, []int{0}, 1); got != -1 {
		t.Fatal("backward released before bulk synchronous turn")
	}
	p.OnForwardDone(last, 1, 2)
	// Reverse order: highest sequence first.
	if got := p.SelectBackward(last, []int{0, 1}, 2); got != 1 {
		t.Fatalf("expected reverse-order release (index 1), got %d", got)
	}
}

func TestPipeDreamInflightCap(t *testing.T) {
	w := world(t, supernet.CVc3, 4, 12, engine.PartitionStatic)
	p := NewPipeDream()
	p.Init(w)
	// Stage 0 budget = D = 4 forwards outstanding.
	for i := 0; i < 4; i++ {
		if got := p.SelectForward(0, []int{i}, 0); got != 0 {
			t.Fatalf("forward %d refused under budget", i)
		}
	}
	if got := p.SelectForward(0, []int{4}, 0); got != -1 {
		t.Fatal("forward admitted beyond 1F1B budget")
	}
	p.OnBackwardDone(0, 0, 1)
	if got := p.SelectForward(0, []int{4}, 1); got != 0 {
		t.Fatal("forward refused after budget returned")
	}
}

func TestSequentialOneAtATime(t *testing.T) {
	p := NewSequential()
	if got := p.SelectForward(0, []int{0, 1}, 0); got != 0 {
		t.Fatal("first subnet refused")
	}
	if got := p.SelectForward(0, []int{1}, 0); got != -1 {
		t.Fatal("second subnet admitted while first in flight")
	}
	p.OnBackwardDone(0, 0, 1)
	if got := p.SelectForward(0, []int{1}, 1); got != 0 {
		t.Fatal("second subnet refused after first completed")
	}
}
