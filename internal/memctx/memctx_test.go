package memctx

import (
	"testing"
	"testing/quick"

	"naspipe/internal/rng"
	"naspipe/internal/supernet"
)

const bw = 1000.0 // bytes per ms: 1000-byte layer swaps in 1 ms

func constBytes(b int64) func(supernet.LayerID) int64 {
	return func(supernet.LayerID) int64 { return b }
}

func ids(vals ...int) []supernet.LayerID {
	out := make([]supernet.LayerID, len(vals))
	for i, v := range vals {
		out[i] = supernet.LayerID(v)
	}
	return out
}

func TestPreloadHits(t *testing.T) {
	m := New(10000, bw)
	m.Preload(ids(1, 2, 3), constBytes(1000))
	ready := m.Acquire(ids(1, 2, 3), constBytes(1000), 5)
	if ready != 5 {
		t.Fatalf("preloaded acquire stalled until %f", ready)
	}
	st := m.Stats()
	if st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("stats %+v, want 3 hits", st)
	}
}

func TestColdMissStalls(t *testing.T) {
	m := New(10000, bw)
	ready := m.Acquire(ids(7), constBytes(2000), 10)
	if ready != 12 { // 2000 bytes / 1000 B/ms = 2 ms
		t.Fatalf("ready = %f want 12", ready)
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.StallMs != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPrefetchAvoidsStall(t *testing.T) {
	m := New(10000, bw)
	m.Prefetch(7, 2000, 0)
	// Copy completes at t=2; acquiring at t=5 is a hit with no stall.
	ready := m.Acquire(ids(7), constBytes(2000), 5)
	if ready != 5 {
		t.Fatalf("ready = %f want 5", ready)
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLatePrefetchPartialStall(t *testing.T) {
	m := New(10000, bw)
	m.Prefetch(7, 2000, 0) // completes at 2
	ready := m.Acquire(ids(7), constBytes(2000), 1)
	if ready != 2 {
		t.Fatalf("ready = %f want 2", ready)
	}
	st := m.Stats()
	if st.Misses != 1 || st.LatePrefetches != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.StallMs != 1 {
		t.Fatalf("stall %f want 1 (partial)", st.StallMs)
	}
}

func TestPCIeSerialization(t *testing.T) {
	m := New(100000, bw)
	m.Prefetch(1, 1000, 0) // channel busy [0,1)
	// Serialized behind it: [1,2).
	if done, issued := m.Prefetch(2, 1000, 0); !issued || done != 2 {
		t.Fatalf("second prefetch: done %v issued %v, want 2 true", done, issued)
	}
	if _, issued := m.Prefetch(2, 1000, 0); issued {
		t.Fatal("prefetch of an in-flight layer issued a second copy")
	}
	if m.Resident(2, 1.5) {
		t.Fatal("second prefetch should still be in flight at 1.5")
	}
	if !m.Resident(2, 2.0) {
		t.Fatal("second prefetch should be resident at 2.0")
	}
}

func TestEvictionFreesAndCountsTraffic(t *testing.T) {
	m := New(10000, bw)
	m.Preload(ids(1, 2), constBytes(3000))
	if m.Used() != 6000 {
		t.Fatalf("used %d", m.Used())
	}
	m.Evict(ids(1), 10)
	if m.Used() != 3000 {
		t.Fatalf("after evict used %d", m.Used())
	}
	if m.Resident(1, 100) {
		t.Fatal("evicted layer still resident")
	}
	if st := m.Stats(); st.SwapOutBytes != 3000 {
		t.Fatalf("swap-out bytes %d", st.SwapOutBytes)
	}
	// The write-back holds the channel for [10,13): a copy issued behind
	// it queues.
	if done, _ := m.Prefetch(3, 1000, 10); done != 14 {
		t.Fatalf("prefetch behind a write-back lands at %v, want 14", done)
	}
}

func TestDuplexWriteBackLeavesChannelFree(t *testing.T) {
	m := New(10000, bw)
	m.DuplexWriteBack = true
	m.Preload(ids(1), constBytes(3000))
	m.Evict(ids(1), 10)
	if st := m.Stats(); st.SwapOutBytes != 3000 || m.Used() != 0 {
		t.Fatalf("evict not accounted: %+v used %d", st, m.Used())
	}
	if done, _ := m.Prefetch(3, 1000, 10); done != 11 {
		t.Fatalf("prefetch after a duplex write-back lands at %v, want 11", done)
	}
}

func TestLockedEntriesSurviveEviction(t *testing.T) {
	m := New(10000, bw)
	m.Acquire(ids(1), constBytes(1000), 0)
	m.Evict(ids(1), 5)
	if !m.Resident(1, 10) {
		t.Fatal("locked entry was evicted")
	}
	m.Release(ids(1), 10)
	m.Evict(ids(1), 10)
	if m.Resident(1, 20) {
		t.Fatal("released entry not evicted")
	}
}

func TestCapacityEvictsLRU(t *testing.T) {
	m := New(3000, bw)
	// Fill with 1,2,3 (1000 each), touching 1 most recently.
	m.Acquire(ids(1, 2, 3), constBytes(1000), 0)
	m.Release(ids(1, 2, 3), 0)
	m.Acquire(ids(2), constBytes(1000), 5)
	m.Release(ids(2), 5)
	m.Acquire(ids(1), constBytes(1000), 6)
	m.Release(ids(1), 6)
	// New layer 4 forces eviction of the LRU: layer 3 (lastUse 0).
	m.Prefetch(4, 1000, 10)
	if m.Resident(3, 20) {
		t.Fatal("layer 3 (LRU) should have been evicted")
	}
	if !m.Resident(1, 20) || !m.Resident(2, 20) {
		t.Fatal("recently used layers evicted instead of LRU")
	}
}

func TestPrefetchDelayedWhenAllLocked(t *testing.T) {
	m := New(2000, bw)
	m.Acquire(ids(1, 2), constBytes(1000), 0) // both locked, cache full
	m.Prefetch(3, 1000, 1)
	if m.Resident(3, 100) {
		t.Fatal("prefetch should have been delayed")
	}
	if m.Used() != 2000 {
		t.Fatalf("used %d want 2000", m.Used())
	}
}

func TestOverCapacityCountedOnForcedAcquire(t *testing.T) {
	m := New(1000, bw)
	m.Acquire(ids(1), constBytes(1000), 0) // locked, full
	m.Acquire(ids(2), constBytes(1000), 1) // must proceed anyway
	st := m.Stats()
	if st.OverCapacity != 1 {
		t.Fatalf("OverCapacity = %d want 1", st.OverCapacity)
	}
	if !m.Resident(2, 100) {
		t.Fatal("forced acquire must still make the layer resident")
	}
}

func TestUnboundedManagerNeverEvicts(t *testing.T) {
	m := New(-1, bw)
	for i := 0; i < 100; i++ {
		m.Prefetch(supernet.LayerID(i), 1<<20, float64(i))
	}
	if st := m.Stats(); st.EvictionsForced != 0 {
		t.Fatalf("unbounded manager evicted: %+v", st)
	}
}

func TestHitRate(t *testing.T) {
	// Regression: zero accesses must NOT report a perfect hit rate — an
	// idle/degenerate stage earned nothing, and 1.0 inflated Table 2
	// aggregates. Such cells render as N/A (callers check Accesses()).
	if got := (Stats{}).HitRate(); got != 0 {
		t.Fatalf("empty stats hit rate = %f, want 0", got)
	}
	if (Stats{}).Accesses() != 0 {
		t.Fatal("empty stats should report zero accesses")
	}
	s := Stats{Hits: 9, Misses: 1}
	if s.HitRate() != 0.9 {
		t.Fatalf("hit rate %f", s.HitRate())
	}
	if s.Accesses() != 10 {
		t.Fatalf("accesses %d want 10", s.Accesses())
	}
	if got := (Stats{Misses: 4}).HitRate(); got != 0 {
		t.Fatalf("all-miss hit rate = %f, want 0", got)
	}
}

func TestDroppedPrefetchCounted(t *testing.T) {
	// Regression: a prefetch abandoned because capacity is held by locked
	// entries used to vanish silently, leaving the later miss
	// unattributable. It must now be counted.
	m := New(2000, bw)
	m.Acquire(ids(1, 2), constBytes(1000), 0) // both locked, cache full
	m.Prefetch(3, 1000, 1)
	st := m.Stats()
	if st.DroppedPrefetches != 1 {
		t.Fatalf("DroppedPrefetches = %d want 1", st.DroppedPrefetches)
	}
	if st.Prefetches != 0 {
		t.Fatalf("dropped prefetch still counted as issued: %+v", st)
	}
	// A prefetch that finds room is not a drop.
	m.Release(ids(1, 2), 2)
	m.Prefetch(4, 1000, 3)
	st = m.Stats()
	if st.DroppedPrefetches != 1 || st.Prefetches != 1 {
		t.Fatalf("stats after successful prefetch %+v", st)
	}
	// A request abandoned upstream lands in the same counter.
	m.NoteDropped()
	if got := m.Stats().DroppedPrefetches; got != 2 {
		t.Fatalf("NoteDropped: DroppedPrefetches = %d want 2", got)
	}
}

// TestResidentAcquireDoesNotAllocate: the hit path runs once per task on
// both planes (sim-sweep's allocs_per_subnet, prefetch.acquire_release_ns).
func TestResidentAcquireDoesNotAllocate(t *testing.T) {
	m := New(-1, bw)
	layers, bytes := idsRange(6), constBytes(1000)
	m.Preload(layers, bytes)
	if n := testing.AllocsPerRun(100, func() {
		m.Acquire(layers, bytes, 1)
		m.Release(layers, 2)
	}); n != 0 {
		t.Fatalf("Acquire+Release of resident layers allocates %v times, want 0", n)
	}
}

func TestPeakBytesTracksHighWater(t *testing.T) {
	m := New(10000, bw)
	m.Preload(ids(1, 2, 3, 4), constBytes(2000))
	m.Evict(ids(1, 2, 3, 4), 1)
	if st := m.Stats(); st.PeakBytes != 8000 {
		t.Fatalf("peak %d want 8000", st.PeakBytes)
	}
}

func TestPreloadIdempotent(t *testing.T) {
	m := New(10000, bw)
	m.Preload(ids(1), constBytes(1000))
	m.Preload(ids(1), constBytes(1000))
	if m.Used() != 1000 {
		t.Fatalf("duplicate preload double-counted: %d", m.Used())
	}
}

func TestNewPanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(100, 0)
}

// Property: under any access sequence, used never exceeds capacity except
// via counted OverCapacity events, and accounting stays consistent
// (used == sum of entry bytes).
func TestQuickAccountingConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		cap := int64(2000 + r.Intn(5)*1000)
		m := New(cap, bw)
		now := 0.0
		var locked []supernet.LayerID
		for op := 0; op < 60; op++ {
			now += float64(r.Intn(3))
			id := supernet.LayerID(r.Intn(10))
			switch r.Intn(4) {
			case 0:
				m.Prefetch(id, 1000, now)
			case 1:
				m.Release(locked, now)
				locked = nil
				ready := m.Acquire(ids(int(id)), constBytes(1000), now)
				if ready < now {
					return false
				}
				locked = ids(int(id))
			case 2:
				m.Evict([]supernet.LayerID{id}, now)
			case 3:
				m.Release(locked, now)
				locked = nil
			}
			if m.Used() > cap && m.Stats().OverCapacity == 0 {
				// capacity may be transiently exceeded only when
				// everything else is locked, which is counted.
				return false
			}
			if m.Used() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a prefetch issued sufficiently early always converts the
// access into a hit with zero stall.
func TestQuickEarlyPrefetchAlwaysHits(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := New(-1, bw)
		n := 1 + r.Intn(8)
		for i := 0; i < n; i++ {
			m.Prefetch(supernet.LayerID(i), 1000, float64(i))
		}
		// All copies done by n ms (serialized 1 ms each); acquire later.
		at := float64(n) + 1
		ready := m.Acquire(idsRange(n), constBytes(1000), at)
		if ready != at {
			return false
		}
		st := m.Stats()
		return st.Hits == n && st.Misses == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func idsRange(n int) []supernet.LayerID {
	out := make([]supernet.LayerID, n)
	for i := range out {
		out[i] = supernet.LayerID(i)
	}
	return out
}

func TestEvictCancelsInFlightPrefetch(t *testing.T) {
	// Evicting an unlocked in-flight entry aborts the copy: the layer is
	// simply no longer resident (the context manager treats a cancelled
	// prefetch like a delayed one).
	m := New(10000, bw)
	m.Prefetch(3, 2000, 0) // in flight until t=2
	m.Evict(ids(3), 1)
	if m.Resident(3, 10) {
		t.Fatal("evicted in-flight entry still resident")
	}
}

func TestReleaseUnknownIDsHarmless(t *testing.T) {
	m := New(1000, bw)
	m.Release(ids(42, 43), 0) // never acquired
	if m.Used() != 0 {
		t.Fatal("phantom residency after releasing unknown ids")
	}
}

func TestDoubleAcquireNeedsDoubleRelease(t *testing.T) {
	// Lock counts: two tasks sharing a layer must both release before it
	// becomes evictable (non-CSP policies can overlap same-layer tasks).
	m := New(10000, bw)
	m.Acquire(ids(1), constBytes(1000), 0)
	m.Acquire(ids(1), constBytes(1000), 1)
	m.Release(ids(1), 2)
	m.Evict(ids(1), 3)
	if !m.Resident(1, 4) {
		t.Fatal("layer evicted while still locked by the second task")
	}
	m.Release(ids(1), 4)
	m.Evict(ids(1), 5)
	if m.Resident(1, 6) {
		t.Fatal("layer not evictable after both releases")
	}
}
