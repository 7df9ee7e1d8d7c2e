package engine

import (
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/prefetch"
	"naspipe/internal/supernet"
)

// TestRequestFetchAppliesBeforeReturning pins what a prefetch request
// means since the requester applies it itself: when requestFetch — or a
// neighbour's pushFetch — returns, every layer of the context is in flight
// or resident in the target stage's cache. No other goroutine has to be
// scheduled for a copy to start, so the measured hit rate cannot depend
// on one being starved.
func TestRequestFetchAppliesBeforeReturning(t *testing.T) {
	cfg := Config{
		Space: supernet.NLPc3.Scaled(8, 3), Spec: cluster.Default(2),
		Seed: 7, NumSubnets: 4,
	}.withDefaults()
	w, err := NewWorld(cfg, PartitionBalanced)
	if err != nil {
		t.Fatal(err)
	}
	c := &ccRun{cfg: cfg, w: w, stages: make([]*ccStage, w.D)}
	for k := range c.stages {
		// Scale 1: the copies take modelled milliseconds, so right after the
		// request they are in flight, not yet resident.
		c.stages[k] = &ccStage{k: k, cache: prefetch.New(-1, cfg.Spec.PCIeBytesPerMs, 1)}
	}
	contextBytes := func(seq, k int) (sum int64) {
		for _, id := range w.stageIDs[seq][k] {
			sum += w.bytesOf(id)
		}
		return sum
	}

	own := c.stages[0]
	c.requestFetch(own, 0)
	if got, want := own.cache.Used(), contextBytes(0, 0); got != want || want == 0 {
		t.Fatalf("own request: %d bytes resident or in flight on return, want %d", got, want)
	}

	pushed := c.stages[1]
	c.fetch(0, 1, 2) // stage 0's goroutine pushing subnet 2's context downstream
	if got, want := pushed.cache.Used(), contextBytes(2, 1); got != want || want == 0 {
		t.Fatalf("context push: %d bytes resident or in flight on return, want %d", got, want)
	}
	if st := pushed.cache.Stats(); st.Prefetches != len(w.stageIDs[2][1]) || st.DroppedPrefetches != 0 {
		t.Fatalf("context push issued %+v, want one copy per layer", st)
	}

	// Without a cache a request is still a no-op, not a nil dereference.
	c.requestFetch(&ccStage{k: 0}, 0)
}
