package prefetch

import (
	"math"
	"testing"
	"time"

	"naspipe/internal/memctx"
	"naspipe/internal/rng"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
)

// TestCacheMatchesBareManager replays random operation sequences through
// a bare memctx.Manager at explicit simulated milliseconds and through a
// Cache whose fake wall clock reads the same instants. The Stats must be
// identical after every operation: the Cache may add a lock, a clock and
// telemetry, but no modelling decision beyond the write-back switch its
// constructor sets. Sizes and times are multiples of
// exactBW bytes and 0.25 ms, so both clocks' arithmetic is exact, ties
// (a copy landing at the instant of an Acquire) are exercised for real,
// and StallMs pins the ns→ms conversion; scale 0 pins instant copies.
func TestCacheMatchesBareManager(t *testing.T) {
	bytesOf := func(id supernet.LayerID) int64 { return exactBW * int64(1+id%4) }
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		scale := []float64{0, 0.5, 1, 2}[r.Intn(4)]
		capacity := []int64{-1, 4 * exactBW, 9 * exactBW}[r.Intn(3)]

		simBW := math.Inf(1)
		if scale > 0 {
			simBW = exactBW / scale
		}
		m := memctx.New(capacity, simBW)
		m.DuplexWriteBack = true // the one decision New switches
		bus := telemetry.NewBus(1024)
		c, clk := newFake(capacity, exactBW, scale)
		c.WithTelemetry(bus, 0)

		var nowMs float64
		var held [][]supernet.LayerID
		var noted, stalled int
		pick := func() []supernet.LayerID {
			out := make([]supernet.LayerID, 1+r.Intn(3))
			for i := range out {
				out[i] = supernet.LayerID(r.Intn(8))
			}
			return out
		}
		for op := 0; op < 80; op++ {
			nowMs += 0.25 * float64(r.Intn(6)) // 0: same instant as the previous op
			clk.t = time.Duration(nowMs * float64(time.Millisecond))
			switch r.Intn(5) {
			case 0:
				id := supernet.LayerID(r.Intn(8))
				m.Prefetch(id, bytesOf(id), nowMs)
				c.Prefetch(id, bytesOf(id))
			case 1:
				layers := pick()
				ready := m.Acquire(layers, bytesOf, nowMs)
				stall := c.Acquire(layers, bytesOf)
				if stall > 0 {
					stalled++
				}
				if got := float64(clk.t) / float64(time.Millisecond); got != ready {
					t.Fatalf("seed %d op %d: cache resumed at %vms, manager at %vms", seed, op, got, ready)
				}
				nowMs = ready
				held = append(held, layers)
			case 2:
				if len(held) > 0 {
					i := r.Intn(len(held))
					m.Release(held[i], nowMs)
					c.Release(held[i])
					held = append(held[:i], held[i+1:]...)
				}
			case 3:
				layers := pick()
				m.Evict(layers, nowMs)
				c.Evict(layers)
			case 4:
				m.NoteDropped()
				c.NoteDropped()
				noted++
			}
			if want, got := m.Stats(), c.Stats(); got != want {
				t.Fatalf("seed %d (scale %v, capacity %d) op %d:\ncache   %+v\nmanager %+v", seed, scale, capacity, op, got, want)
			}
			if m.Used() != c.Used() {
				t.Fatalf("seed %d op %d: used %d vs manager %d", seed, op, c.Used(), m.Used())
			}
		}
		if len(clk.sleeps) != stalled {
			t.Fatalf("seed %d: %d sleeps for %d stalled acquires, want one each", seed, len(clk.sleeps), stalled)
		}

		// The event stream is derived from the same counters.
		st, snap := c.Stats(), bus.Snapshot()
		var evictedBytes int64
		var lands int
		for _, ev := range bus.Events() {
			switch ev.Op {
			case telemetry.OpCacheEvict:
				evictedBytes += ev.Arg
			case telemetry.OpPrefetchLand:
				lands++
			}
		}
		if snap.CacheHits != int64(st.Hits) || snap.CacheMisses != int64(st.Misses) ||
			snap.PrefetchDrops != int64(st.DroppedPrefetches) ||
			snap.PrefetchRequests != int64(st.Prefetches+st.DroppedPrefetches-noted) ||
			lands != st.Prefetches || evictedBytes != st.SwapOutBytes ||
			float64(snap.StallNs) != st.StallMs*float64(time.Millisecond) {
			t.Fatalf("seed %d: telemetry diverges from stats\nsnapshot %+v\nlands %d evicted %d\nstats %+v", seed, snap, lands, evictedBytes, st)
		}
	}
}
