package prefetch

import (
	"sync"
	"testing"
	"time"

	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
)

const bw = 1000.0 // bytes per ms

// exactBW is 1/64 byte per ns at scale 1, so copies of whole multiples of
// exactBW bytes take exact times in both the simulator's milliseconds and
// the cache's nanoseconds: timing tests can assert with ==.
const exactBW = 15625.0 // bytes per ms

// fakeClock stands in for the wall clock: time moves only when a test
// sets t or the cache sleeps, and every sleep is recorded.
type fakeClock struct {
	t      time.Duration
	sleeps []time.Duration
}

func (f *fakeClock) now() time.Duration { return f.t }

func (f *fakeClock) sleep(d time.Duration) {
	f.sleeps = append(f.sleeps, d)
	f.t += d
}

// newFake is New on a fake clock starting at 0.
func newFake(capacity int64, bandwidthBytesPerMs, scale float64) (*Cache, *fakeClock) {
	c := New(capacity, bandwidthBytesPerMs, scale)
	f := &fakeClock{}
	c.now, c.sleep = f.now, f.sleep
	return c, f
}

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

func TestPrefetchThenAcquireHits(t *testing.T) {
	c := New(10000, bw, 0) // instant copies
	c.Prefetch(1, 1000)
	c.Prefetch(2, 1000)
	if stall := c.Acquire(ids(1, 2), constBytes(1000)); stall != 0 {
		t.Fatalf("instant-copy acquire stalled %v", stall)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 0 || st.Prefetches != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestColdAcquireIsMiss(t *testing.T) {
	c := New(10000, bw, 0)
	c.Acquire(ids(7), constBytes(2000))
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.SwapInBytes != 2000 {
		t.Fatalf("stats %+v", st)
	}
	if !c.Resident(7) {
		t.Fatal("synchronously fetched layer not resident")
	}
}

func TestLatePrefetchCountedAndStalls(t *testing.T) {
	// A copy still in flight when acquired: the access is a miss, a late
	// prefetch, and the acquire sleeps once, exactly until completion.
	c, clk := newFake(-1, exactBW, 0.5) // exactBW bytes -> 0.5ms wall clock
	c.Prefetch(7, 4*exactBW)            // lands at 2ms
	clk.t = 500 * time.Microsecond
	if stall := c.Acquire(ids(7), constBytes(4*exactBW)); stall != 1500*time.Microsecond {
		t.Fatalf("stall %v, want 1.5ms", stall)
	}
	if len(clk.sleeps) != 1 || clk.sleeps[0] != 1500*time.Microsecond {
		t.Fatalf("sleeps %v, want one of 1.5ms", clk.sleeps)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.LatePrefetches != 1 || st.StallMs != 1.5 {
		t.Fatalf("stats %+v", st)
	}
	if !c.Resident(7) {
		t.Fatal("layer not resident after stalled acquire")
	}
}

// TestAcquireWaitsForWhatIsLeft pins the split between the stall that is
// charged and the wait that is paid: time that passes between the instant
// of activation and the sleep shortens the sleep, never the modelled stall.
func TestAcquireWaitsForWhatIsLeft(t *testing.T) {
	c, clk := newFake(-1, exactBW, 1)
	c.Prefetch(7, 2*exactBW) // lands at 2ms
	clk.t = 500 * time.Microsecond
	reads := 0
	c.now = func() time.Duration {
		reads++
		if reads == 2 { // the re-read after the unlock: 0.25ms went by
			clk.t += 250 * time.Microsecond
		}
		return clk.t
	}
	if stall := c.Acquire(ids(7), constBytes(2*exactBW)); stall != 1500*time.Microsecond {
		t.Fatalf("stall %v, want the modelled 1.5ms", stall)
	}
	if len(clk.sleeps) != 1 || clk.sleeps[0] != 1250*time.Microsecond {
		t.Fatalf("sleeps %v, want one of 1.25ms", clk.sleeps)
	}
	if st := c.Stats(); st.StallMs != 1.5 {
		t.Fatalf("StallMs %v, want 1.5", st.StallMs)
	}
	if clk.t != 2*time.Millisecond || !c.Resident(7) {
		t.Fatalf("acquire returned at %v, resident=%v; want 2ms and resident", clk.t, c.Resident(7))
	}
}

// TestStallSpanCoversTheWaitPaid: the stall span runs from before the
// sleep to after it, however far the sleep overshoots, and Arg stays the
// modelled nanoseconds — so span − Arg is the overshoot of that stall.
func TestStallSpanCoversTheWaitPaid(t *testing.T) {
	const overshoot = 3 * time.Millisecond
	c, clk := newFake(-1, exactBW, 1)
	bus := telemetry.NewBus(16)
	c.WithTelemetry(bus, 0)
	c.sleep = func(d time.Duration) {
		clk.sleep(d)
		time.Sleep(overshoot) // the bus stamps on the real clock
	}
	c.Prefetch(7, exactBW) // lands at 1ms
	stall := c.AcquireFor(ids(7), constBytes(exactBW), 3, telemetry.KindForward)
	var begin, end *telemetry.Event
	for _, ev := range bus.Events() {
		if ev.Op != telemetry.OpCacheStall {
			continue
		}
		switch ev.Phase {
		case telemetry.PhaseBegin:
			begin = &ev
		case telemetry.PhaseEnd:
			end = &ev
		}
	}
	if begin == nil || end == nil {
		t.Fatalf("stall span missing: %+v", bus.Events())
	}
	if begin.Arg != int64(stall) || end.Arg != int64(stall) || stall != time.Millisecond {
		t.Fatalf("span Arg %d/%d, stall %v; want the modelled 1ms on both ends", begin.Arg, end.Arg, stall)
	}
	if span := time.Duration(end.TsNs - begin.TsNs); span < overshoot {
		t.Fatalf("stall span %v is shorter than the %v the wait took", span, overshoot)
	}
}

// TestAcquireClassifiesAtActivation pins the hit definition the two
// planes share: every layer of one Acquire is classified at the instant
// of the call, so two copies in flight are two late misses whatever order
// the task lists them in, and the task sleeps once, until the later one.
func TestAcquireClassifiesAtActivation(t *testing.T) {
	for _, order := range [][]supernet.LayerID{ids(2, 1), ids(1, 2)} {
		c, clk := newFake(-1, exactBW, 1)
		c.Prefetch(1, exactBW) // lands at 1ms
		c.Prefetch(2, exactBW) // serialized behind it: lands at 2ms
		clk.t = 250 * time.Microsecond
		stall := c.Acquire(order, constBytes(exactBW))
		st := c.Stats()
		if st.Hits != 0 || st.Misses != 2 || st.LatePrefetches != 2 {
			t.Fatalf("order %v: stats %+v, want 0 hits, 2 late misses", order, st)
		}
		if stall != 1750*time.Microsecond || st.StallMs != 1.75 {
			t.Fatalf("order %v: stall %v / %vms, want layer 2's deadline - now = 1.75ms", order, stall, st.StallMs)
		}
		if len(clk.sleeps) != 1 {
			t.Fatalf("order %v: slept %v, want one wait", order, clk.sleeps)
		}
	}
}

func TestSynchronousFetchQueuesBehindInFlightPrefetch(t *testing.T) {
	c, clk := newFake(-1, exactBW, 1)
	c.Prefetch(1, 2*exactBW) // holds the channel until 2ms
	clk.t = 500 * time.Microsecond
	// Layer 2 is absent: its synchronous copy starts when the channel
	// frees and lands at 3ms.
	if stall := c.Acquire(ids(2), constBytes(exactBW)); stall != 2500*time.Microsecond {
		t.Fatalf("stall %v, want 2.5ms", stall)
	}
	st := c.Stats()
	if st.Misses != 1 || st.LatePrefetches != 0 || st.StallMs != 2.5 {
		t.Fatalf("stats %+v", st)
	}
	if clk.t != 3*time.Millisecond || !c.Resident(2) {
		t.Fatalf("acquire returned at %v, resident=%v; want 3ms and resident", clk.t, c.Resident(2))
	}
}

func TestCapacityEvictsLRU(t *testing.T) {
	c := New(3000, bw, 0)
	c.Acquire(ids(1, 2, 3), constBytes(1000))
	c.Release(ids(1, 2, 3))
	c.Acquire(ids(2), constBytes(1000))
	c.Release(ids(2))
	c.Acquire(ids(1), constBytes(1000))
	c.Release(ids(1))
	// New layer 4 forces eviction of the LRU: layer 3.
	c.Prefetch(4, 1000)
	if c.Resident(3) {
		t.Fatal("layer 3 (LRU) should have been evicted")
	}
	if !c.Resident(1) || !c.Resident(2) || !c.Resident(4) {
		t.Fatal("wrong entries evicted")
	}
	if st := c.Stats(); st.EvictionsForced == 0 {
		t.Fatalf("forced eviction not counted: %+v", st)
	}
}

func TestPrefetchDroppedWhenAllLocked(t *testing.T) {
	c := New(2000, bw, 0)
	c.Acquire(ids(1, 2), constBytes(1000)) // both locked, cache full
	c.Prefetch(3, 1000)
	if c.Resident(3) {
		t.Fatal("prefetch should have been dropped")
	}
	st := c.Stats()
	if st.DroppedPrefetches != 1 {
		t.Fatalf("DroppedPrefetches = %d want 1", st.DroppedPrefetches)
	}
	if c.Used() != 2000 {
		t.Fatalf("used %d want 2000", c.Used())
	}
}

func TestNoteDroppedFoldsIntoStats(t *testing.T) {
	c := New(1000, bw, 0)
	c.NoteDropped()
	c.NoteDropped()
	if st := c.Stats(); st.DroppedPrefetches != 2 {
		t.Fatalf("DroppedPrefetches = %d want 2", st.DroppedPrefetches)
	}
}

func TestOverCapacityForcedAcquire(t *testing.T) {
	c := New(1000, bw, 0)
	c.Acquire(ids(1), constBytes(1000)) // locked, full
	c.Acquire(ids(2), constBytes(1000)) // must proceed anyway
	st := c.Stats()
	if st.OverCapacity != 1 {
		t.Fatalf("OverCapacity = %d want 1", st.OverCapacity)
	}
	if !c.Resident(2) {
		t.Fatal("forced acquire must still make the layer resident")
	}
}

func TestLockedEntriesSurviveEviction(t *testing.T) {
	c := New(10000, bw, 0)
	c.Acquire(ids(1), constBytes(1000))
	c.Evict(ids(1))
	if !c.Resident(1) {
		t.Fatal("locked entry was evicted")
	}
	c.Release(ids(1))
	c.Evict(ids(1))
	if c.Resident(1) {
		t.Fatal("released entry not evicted")
	}
	if st := c.Stats(); st.SwapOutBytes != 1000 {
		t.Fatalf("swap-out bytes %d", st.SwapOutBytes)
	}
}

func TestDoubleAcquireNeedsDoubleRelease(t *testing.T) {
	c := New(10000, bw, 0)
	c.Acquire(ids(1), constBytes(1000))
	c.Acquire(ids(1), constBytes(1000))
	c.Release(ids(1))
	c.Evict(ids(1))
	if !c.Resident(1) {
		t.Fatal("layer evicted while still locked by the second task")
	}
	c.Release(ids(1))
	c.Evict(ids(1))
	if c.Resident(1) {
		t.Fatal("layer not evictable after both releases")
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New(-1, bw, 0)
	for i := 0; i < 100; i++ {
		c.Prefetch(supernet.LayerID(i), 1<<20)
	}
	if st := c.Stats(); st.EvictionsForced != 0 || st.DroppedPrefetches != 0 {
		t.Fatalf("unbounded cache evicted or dropped: %+v", st)
	}
}

// TestConcurrentAccountingConsistent hammers one cache from many
// goroutines — the shape of the concurrent plane, where a stage worker
// and its two neighbours share it — and checks accounting invariants
// afterwards. Run under -race this is the thread-safety proof.
func TestConcurrentAccountingConsistent(t *testing.T) {
	c := New(8000, bw, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for op := 0; op < 200; op++ {
				id := (g*200 + op) % 16
				switch op % 3 {
				case 0:
					c.Prefetch(supernet.LayerID(id), 1000)
				case 1:
					c.Acquire(ids(id), constBytes(1000))
					c.Release(ids(id))
				case 2:
					c.Evict(ids(id))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 4*200/3+1 {
		// 267 acquires total: each goroutine issues ~67.
		t.Logf("accesses %d", st.Hits+st.Misses)
	}
	if got := st.Accesses(); got == 0 {
		t.Fatal("no accesses recorded")
	}
	if c.Used() < 0 {
		t.Fatalf("negative residency %d", c.Used())
	}
	if c.Used() > 8000+1000 {
		// At most one over-capacity forced entry can be in flight per
		// acquire; sustained overshoot means accounting corruption.
		if st.OverCapacity == 0 {
			t.Fatalf("used %d exceeds capacity without counted forcing", c.Used())
		}
	}
}

// TestResidentPathDoesNotAllocate pins what the Cache doc promises and
// the bench's prefetch.acquire_release_ns probe times: with no bus, the
// bracket every task pays on resident layers allocates nothing.
func TestResidentPathDoesNotAllocate(t *testing.T) {
	c := New(-1, bw, 0)
	layers, bytes := ids(1, 2, 3, 4, 5, 6), constBytes(1000)
	c.Acquire(layers, bytes)
	c.Release(layers)
	if n := testing.AllocsPerRun(100, func() {
		c.Acquire(layers, bytes)
		c.Release(layers)
	}); n != 0 {
		t.Fatalf("Acquire+Release of resident layers allocates %v times, want 0", n)
	}
}
