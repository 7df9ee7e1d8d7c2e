package prefetch

import (
	"sync"
	"testing"
	"time"
)

// TestReleaseAfterEvict pins the lock/evict edge cases: an evicted
// layer's Release is a no-op (no resurrection, no panic), a locked
// layer survives Evict until its last Release, and byte accounting
// balances back to zero.
func TestReleaseAfterEvict(t *testing.T) {
	c := New(10000, bw, 0)

	// Acquire twice: the lock count must hold the entry through both an
	// Evict and the first Release.
	c.Acquire(ids(1), constBytes(1000))
	c.Acquire(ids(1), constBytes(1000))
	c.Evict(ids(1))
	if !c.Resident(1) {
		t.Fatal("evict removed a locked layer")
	}
	c.Release(ids(1))
	c.Evict(ids(1))
	if !c.Resident(1) {
		t.Fatal("evict removed a layer still locked once")
	}
	c.Release(ids(1))
	c.Evict(ids(1))
	if c.Resident(1) {
		t.Fatal("evict left an unlocked layer resident")
	}

	// Release after evict: the entry is gone; must not panic, must not
	// recreate it, must not disturb accounting.
	c.Release(ids(1))
	if c.Resident(1) {
		t.Fatal("release resurrected an evicted layer")
	}
	if used := c.Used(); used != 0 {
		t.Fatalf("byte accounting drifted: used %d after full evict", used)
	}

	// Over-releasing (more Releases than Acquires) must also stay a
	// no-op for a live entry.
	c.Acquire(ids(2), constBytes(500))
	c.Release(ids(2))
	c.Release(ids(2))
	c.Evict(ids(2))
	if c.Resident(2) || c.Used() != 0 {
		t.Fatalf("over-release corrupted lock state: resident=%v used=%d", c.Resident(2), c.Used())
	}
}

// TestAcquireRacesDeadlineLanding races Acquire against an in-flight
// prefetch deadline landing, with a concurrent evictor — the exact
// interleaving the wall-clock plane hits when a stage activates a layer
// whose copy is still in flight. Run under -race. Every acquire must
// classify as exactly one of hit/miss, no acquire may hang, and the
// accounting must balance once everything is released and evicted.
func TestAcquireRacesDeadlineLanding(t *testing.T) {
	// scale 1 with bw 1000 B/ms: a 1000-byte copy takes ~1ms, so some
	// acquires land before the deadline (late-prefetch misses) and some
	// after (hits).
	c := New(-1, bw, 1)
	const workers = 8
	c.Prefetch(1, 1000)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			time.Sleep(time.Duration(w) * 300 * time.Microsecond)
			c.Acquire(ids(1), constBytes(1000))
			c.Release(ids(1))
		}(w)
	}
	// Evictor racing the lock state: only ever removes unlocked entries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.Evict(ids(1))
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != workers {
		t.Fatalf("hit/miss accounting lost acquires: hits=%d misses=%d want total %d",
			st.Hits, st.Misses, workers)
	}
	c.Evict(ids(1))
	if used := c.Used(); used != 0 {
		t.Fatalf("byte accounting drifted after final evict: used %d", used)
	}
}

// TestCacheFactorOneThrash drives a capacity-of-one cache through a
// stream of distinct layers — pure thrash, the cache-factor-1
// configuration. Every access must miss, every admission must force the
// previous resident out, and residency must never exceed capacity once
// the accesses are sequential and released.
func TestCacheFactorOneThrash(t *testing.T) {
	const layerBytes = 1000
	c := New(layerBytes, bw, 0) // room for exactly one layer, instant copies
	const n = 32
	for i := 0; i < n; i++ {
		c.Acquire(ids(i), constBytes(layerBytes))
		if used := c.Used(); used > layerBytes {
			t.Fatalf("thrash exceeded capacity: used %d at layer %d", used, i)
		}
		c.Release(ids(i))
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != n {
		t.Fatalf("thrash stream must miss every access: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.EvictionsForced != n-1 {
		t.Fatalf("each admission must evict its predecessor: %d forced evictions, want %d",
			st.EvictionsForced, n-1)
	}
	// Prefetching into the thrashing cache while the resident layer is
	// locked: no room can be made, so the prefetch must drop — never
	// block, never evict the locked layer.
	c.Acquire(ids(100), constBytes(layerBytes))
	c.Prefetch(101, layerBytes)
	if c.Resident(101) {
		t.Fatal("prefetch displaced a locked layer")
	}
	if got := c.Stats().DroppedPrefetches; got != 1 {
		t.Fatalf("over-capacity prefetch must count as dropped: got %d", got)
	}
	c.Release(ids(100))
}
